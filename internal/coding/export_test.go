package coding

// ContextCounts returns a Context encoder's frequency counters, the
// table's then the shift register's, for the external tests that check
// them against circuit's Johnson counter model (package coding's own
// tests cannot import circuit, which imports coding).
func ContextCounts(e Encoder) []uint32 {
	st := &e.(*contextEncoder).st
	out := make([]uint32, len(st.slots))
	for i, ent := range st.slots {
		out[i] = ent.count
	}
	return out
}
