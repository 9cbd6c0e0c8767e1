package circuit

// CAM models the selective-precharge content-addressable match circuit of
// §5.3.3 (after Zukowski & Wang): each entry first compares only the
// low-order bits of the probe against its tag; only entries that pass this
// partial match precharge and compare the remaining bits. This avoids
// charging the full 32-bit comparators of every entry every cycle.
//
// The model counts the comparator bit-charges actually expended, so the
// energy advantage over a naive full-width probe can be quantified, and
// it serves as an independent oracle for the Window coder's
// PartialMatches and FullMatches counts (see oracle_test.go).
type CAM struct {
	tags        []uint64
	valid       []bool
	partialBits int
	tagBits     int

	// PartialCharges and FullCharges accumulate the number of comparator
	// bit-charges spent in the partial and full phases respectively.
	PartialCharges uint64
	FullCharges    uint64
	// Probes counts match operations.
	Probes uint64
}

// NewCAM builds a CAM with the given number of entries and tag width;
// partialBits low-order bits are compared in the first phase (the paper's
// design uses 8 of 32).
func NewCAM(entries, tagBits, partialBits int) *CAM {
	if entries < 1 || tagBits < 1 || partialBits < 1 || partialBits > tagBits {
		panic("circuit: invalid CAM geometry")
	}
	return &CAM{
		tags:        make([]uint64, entries),
		valid:       make([]bool, entries),
		partialBits: partialBits,
		tagBits:     tagBits,
	}
}

// Write stores a tag into an entry.
func (c *CAM) Write(entry int, tag uint64) {
	c.tags[entry] = tag & c.mask(c.tagBits)
	c.valid[entry] = true
}

// Match probes all entries with the given tag and returns the matching
// entry index, or -1. Energy accounting: every valid entry charges its
// partialBits comparators; entries passing the partial phase charge the
// remaining tagBits-partialBits comparators.
func (c *CAM) Match(tag uint64) int {
	c.Probes++
	tag &= c.mask(c.tagBits)
	low := tag & c.mask(c.partialBits)
	found := -1
	for i, t := range c.tags {
		if !c.valid[i] {
			continue
		}
		c.PartialCharges += uint64(c.partialBits)
		if t&c.mask(c.partialBits) != low {
			continue
		}
		c.FullCharges += uint64(c.tagBits - c.partialBits)
		if t == tag && found < 0 {
			found = i
		}
	}
	return found
}

// NaiveMatchCharges returns the comparator bit-charges a full-width probe
// (no selective precharge) would have spent for the same number of probes:
// every valid entry charging all tag bits each probe. It is computed from
// the current entry count, so call it with a stable occupancy.
func (c *CAM) NaiveMatchCharges() uint64 {
	occupied := 0
	for _, v := range c.valid {
		if v {
			occupied++
		}
	}
	return c.Probes * uint64(occupied) * uint64(c.tagBits)
}

// Charges returns the total comparator bit-charges spent with selective
// precharge enabled.
func (c *CAM) Charges() uint64 { return c.PartialCharges + c.FullCharges }

func (c *CAM) mask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}
