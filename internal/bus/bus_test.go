package bus

import (
	"math/rand"
	"testing"
)

// couplings is the eq. (3) coupling count of one cycle that moves a bus
// of the given width from prev to cur, as Activity returns it.
func couplings(prev, cur Word, width int) int {
	m := Mask(width)
	_, c := Activity(prev&m, (prev^cur)&m, m>>1)
	return int(c)
}

func TestMask(t *testing.T) {
	cases := []struct {
		width int
		want  Word
	}{
		{0, 0},
		{1, 1},
		{4, 0xF},
		{8, 0xFF},
		{32, 0xFFFFFFFF},
		{63, 0x7FFFFFFFFFFFFFFF},
		{64, ^Word(0)},
	}
	for _, c := range cases {
		if got := Mask(c.width); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.width, got, c.want)
		}
	}
}

func TestMaskPanics(t *testing.T) {
	for _, w := range []int{-1, 65, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Mask(%d) did not panic", w)
				}
			}()
			Mask(w)
		}()
	}
}

func TestTransitions(t *testing.T) {
	if got := Transitions(0b1010, 0b0110); got != 0b1100 {
		t.Errorf("Transitions = %#b, want 0b1100", got)
	}
	if got := Transitions(0xFF, 0xFF); got != 0 {
		t.Errorf("identical states should produce no transitions, got %#x", got)
	}
}

func TestWeight(t *testing.T) {
	cases := []struct {
		w    Word
		want int
	}{
		{0, 0}, {1, 1}, {0b1011, 3}, {^Word(0), 64},
	}
	for _, c := range cases {
		if got := Weight(c.w); got != c.want {
			t.Errorf("Weight(%#x) = %d, want %d", c.w, got, c.want)
		}
	}
}

func TestTransitionCountMasksWidth(t *testing.T) {
	// Wires above the bus width must not be counted: at Λ = 0, Cost is
	// the transition count alone.
	if got := Cost(0, ^Word(0), 8, 0); got != 8 {
		t.Errorf("Cost width 8, Λ 0 = %v, want 8", got)
	}
	if got := Cost(0, ^Word(0), 64, 0); got != 64 {
		t.Errorf("Cost width 64, Λ 0 = %v, want 64", got)
	}
}

func TestCouplingCount(t *testing.T) {
	cases := []struct {
		name      string
		prev, cur Word
		width     int
		want      int
	}{
		{"no change", 0b0000, 0b0000, 4, 0},
		// One wire toggles in the middle: couples with both neighbors.
		{"single toggle", 0b0000, 0b0010, 4, 2},
		// One wire toggles at the edge: couples with one neighbor.
		{"edge toggle", 0b0000, 0b0001, 4, 1},
		// Two adjacent wires rise together: only the two boundary pairs couple.
		{"adjacent pair same direction", 0b0000, 0b0110, 4, 2},
		// Adjacent wires toggling in opposite directions: the shared pair
		// swings by 2·Vdd (2 events) plus the two boundary pairs.
		{"adjacent pair opposite", 0b0010, 0b0100, 4, 4},
		// Wires 0 and 2 toggle: pairs (0,1), (1,2), (2,3) all couple.
		{"one wire apart", 0b00000, 0b00101, 5, 3},
		// Interior wires 1 and 3 toggle: all four pairs couple.
		{"separated interior", 0b00000, 0b01010, 5, 4},
		// All wires toggle together: relative polarity everywhere unchanged.
		{"all toggle", 0b0000, 0b1111, 4, 0},
		// Alternating pattern inverts: every adjacent pair swings 2·Vdd.
		{"alternating flip", 0b0101, 0b1010, 4, 6},
		{"width 1 has no pairs", 0, 1, 1, 0},
	}
	for _, c := range cases {
		if got := couplings(c.prev, c.cur, c.width); got != c.want {
			t.Errorf("%s: Activity couplings = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestCouplingMatchesPaperEquation(t *testing.T) {
	// Direct implementation of eq. (3) with arithmetic differences:
	// ψ contribution for pair n = |(W_n − W_{n+1}) − (W'_n − W'_{n+1})|.
	ref := func(prev, cur Word, width int) int {
		count := 0
		for n := 0; n < width-1; n++ {
			dPrev := int((prev>>uint(n))&1) - int((prev>>uint(n+1))&1)
			dCur := int((cur>>uint(n))&1) - int((cur>>uint(n+1))&1)
			d := dCur - dPrev
			if d < 0 {
				d = -d
			}
			count += d
		}
		return count
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		width := 1 + rng.Intn(64)
		prev := Word(rng.Uint64()) & Mask(width)
		cur := Word(rng.Uint64()) & Mask(width)
		if got, want := couplings(prev, cur, width), ref(prev, cur, width); got != want {
			t.Fatalf("width %d prev %#x cur %#x: got %d want %d", width, prev, cur, got, want)
		}
	}
}

func TestCostCombinesTerms(t *testing.T) {
	// 0b0000 -> 0b0101 on 4 wires: 2 transitions, pairs (0,1),(2,3) couple
	// plus (1,2): t=0101, t^(t>>1)=0101^0010=0111 -> 3 coupling events.
	got := Cost(0b0000, 0b0101, 4, 2.0)
	want := 2 + 2.0*3
	if got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}

func TestExpectedSelfCoupling(t *testing.T) {
	// Empirically average the exact coupling count over random bus states
	// and compare against the expectation (in half-events).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		width := 2 + rng.Intn(31)
		tvec := Word(rng.Uint64()) & Mask(width)
		const samples = 4000
		sum := 0
		for i := 0; i < samples; i++ {
			prev := Word(rng.Uint64()) & Mask(width)
			sum += couplings(prev, prev^tvec, width)
		}
		avg := float64(sum) / samples
		want := float64(ExpectedSelfCoupling(tvec, width)) / 2
		if diff := avg - want; diff > 0.25 || diff < -0.25 {
			t.Errorf("width %d t %#x: empirical %v vs expected %v", width, tvec, avg, want)
		}
	}
}

func TestExpectedSelfCouplingExact(t *testing.T) {
	// Single toggling wire at the edge: one pair, always 1 event -> 2 half-events.
	if got := ExpectedSelfCoupling(0b0001, 4); got != 2 {
		t.Errorf("edge toggle: got %d half-events, want 2", got)
	}
	// Interior wire: two pairs -> 4 half-events.
	if got := ExpectedSelfCoupling(0b0010, 4); got != 4 {
		t.Errorf("interior toggle: got %d half-events, want 4", got)
	}
	// Width 1: no pairs.
	if got := ExpectedSelfCoupling(1, 1); got != 0 {
		t.Errorf("width 1: got %d, want 0", got)
	}
}

func TestMeterBasic(t *testing.T) {
	m := NewMeterLite(4)
	m.Record(0b0000) // initial: free
	m.Record(0b0001) // 1 transition, 1 coupling (edge)
	m.Record(0b0001) // idle
	// 0b0001 -> 0b1110: 4 transitions; wires 0 and 1 toggle in opposite
	// directions (2 events on pair 0); wires 1..3 rise together (0 events
	// on pairs 1 and 2).
	m.Record(0b1110)
	if m.Cycles() != 4 {
		t.Errorf("Cycles = %d, want 4", m.Cycles())
	}
	if m.Transitions() != 5 {
		t.Errorf("Transitions = %d, want 5", m.Transitions())
	}
	if m.Couplings() != 3 {
		t.Errorf("Couplings = %d, want 3", m.Couplings())
	}
	if got := m.Cost(0.5); got != 6.5 {
		t.Errorf("Cost(0.5) = %v, want 6.5", got)
	}
	if got := m.CostPerCycle(0.5); got != 6.5/3 {
		t.Errorf("CostPerCycle = %v, want %v", got, 6.5/3)
	}
}

// TestMeterPerWireSumsToTotal: the meter's Σ totals equal the sums of
// the bit-serial oracle's per-wire λ_n and per-pair ψ_n histograms.
func TestMeterPerWireSumsToTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMeterLite(32)
	ref := newReferenceMeter(32)
	for i := 0; i < 1000; i++ {
		w := Word(rng.Uint64())
		m.Record(w)
		ref.Record(w)
	}
	var sumWire, sumPair uint64
	for _, n := range ref.perWire {
		sumWire += n
	}
	for _, n := range ref.perPair {
		sumPair += n
	}
	if sumWire != m.Transitions() {
		t.Errorf("per-wire sum %d != total %d", sumWire, m.Transitions())
	}
	if sumPair != m.Couplings() {
		t.Errorf("per-pair sum %d != total %d", sumPair, m.Couplings())
	}
}

func TestMeterMasksHighBits(t *testing.T) {
	m := NewMeterLite(8)
	m.Record(0)
	m.Record(0xFFFFFFFFFFFFFF00) // all activity above the bus width
	if m.Transitions() != 0 {
		t.Errorf("high bits leaked into a width-8 meter: %d transitions", m.Transitions())
	}
}

func TestMeterReset(t *testing.T) {
	m := NewMeterLite(8)
	m.Record(0x00)
	m.Record(0xFF)
	m.Reset()
	if m.Cycles() != 0 || m.Transitions() != 0 || m.Couplings() != 0 {
		t.Error("Reset did not clear accumulators")
	}
	m.Record(0xFF) // must be treated as the initial state again
	if m.Transitions() != 0 {
		t.Error("Reset did not clear the initial-state latch")
	}
}

func TestMeterShortTraceCostPerCycle(t *testing.T) {
	m := NewMeterLite(8)
	if m.CostPerCycle(1) != 0 {
		t.Error("empty meter should report zero cost per cycle")
	}
	m.Record(0xAB)
	if m.CostPerCycle(1) != 0 {
		t.Error("single-cycle meter should report zero cost per cycle")
	}
}

func TestMeasureTrace(t *testing.T) {
	m := NewMeterLite(4)
	RecordValues(m, []Word{0b0000, 0b1111, 0b0000})
	if m.Transitions() != 8 {
		t.Errorf("Transitions = %d, want 8", m.Transitions())
	}
}
