package coding

// ContextCounts returns a Context encoder's frequency counters, the
// table's then the shift register's, for the external tests that check
// them against circuit's Johnson counter model (package coding's own
// tests cannot import circuit, which imports coding).
func ContextCounts(e Encoder) []uint32 {
	st := &e.(*contextEncoder).st
	out := make([]uint32, 0, len(st.table)+len(st.sr))
	for _, ent := range st.table {
		out = append(out, ent.count)
	}
	for _, ent := range st.sr {
		out = append(out, ent.count)
	}
	return out
}
