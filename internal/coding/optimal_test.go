package coding

import (
	"math/bits"
	"testing"

	"buspower/internal/bus"
)

// Property tests for the optimal-codebook scheme families (optmem, vc,
// lowweight, dvs): the enumerative rank/unrank bijection, exact
// decode(encode(x)) round-trips, and the weight/transition bounds the
// source constructions guarantee.

// TestBallRankUnrankBijection enumerates every n-bit word through the
// ball ordering and checks it is a weight-monotone bijection: ranks are
// exhaustive, unrank inverts rank, and weight never decreases with index.
func TestBallRankUnrankBijection(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 11} {
		seen := make([]bool, 1<<uint(n))
		prevWeight := 0
		for idx := uint64(0); idx < 1<<uint(n); idx++ {
			word := ballUnrank(n, idx)
			if word >= 1<<uint(n) {
				t.Fatalf("n=%d idx=%d: unrank produced out-of-range word %#x", n, idx, word)
			}
			if seen[word] {
				t.Fatalf("n=%d idx=%d: unrank repeated word %#x", n, idx, word)
			}
			seen[word] = true
			if got := ballRank(n, word); got != idx {
				t.Fatalf("n=%d: rank(unrank(%d)) = %d", n, idx, got)
			}
			if w := bits.OnesCount64(word); w < prevWeight {
				t.Fatalf("n=%d idx=%d: weight %d below previous %d — not weight-ordered", n, idx, w, prevWeight)
			} else {
				prevWeight = w
			}
		}
	}
}

// TestBallRadius pins the radius arithmetic to hand-checked points.
func TestBallRadius(t *testing.T) {
	cases := []struct {
		n     int
		count uint64
		want  int
	}{
		{3, 4, 1},         // 1 + 3 ≥ 4
		{3, 5, 2},         // needs weight-2 words
		{8, 256, 8},       // full space: radius = n
		{34, 1 << 32, 15}, // 32-bit bus + 2 wires: Σ C(34,i), i≤15 ≥ 2^32
	}
	for _, c := range cases {
		got, err := ballRadius(c.n, c.count)
		if err != nil {
			t.Fatalf("ballRadius(%d, %d): %v", c.n, c.count, err)
		}
		if got != c.want {
			t.Errorf("ballRadius(%d, %d) = %d, want %d", c.n, c.count, got, c.want)
		}
		if ballSize(c.n, got) < c.count || (got > 0 && ballSize(c.n, got-1) >= c.count) {
			t.Errorf("ballRadius(%d, %d) = %d is not minimal-sufficient", c.n, c.count, got)
		}
	}
	if _, err := ballRadius(3, 9); err == nil {
		t.Error("ballRadius(3, 9) should fail: 3 wires address at most 8 words")
	}
}

// optimalConfigs returns the builders the round-trip, bound and
// differential suites share, with the per-cycle toggle bound each
// construction guarantees over the whole coded bus.
func optimalConfigs(width int) map[string]struct {
	build func() (*BallTranscoder, error)
	bound func(*BallTranscoder) int
} {
	type cfg = struct {
		build func() (*BallTranscoder, error)
		bound func(*BallTranscoder) int
	}
	// Memoryless codewords are weight-bounded, so a transition flips at
	// most the union of two codewords' high wires.
	memoryless := func(t *BallTranscoder) int { return 2 * t.Radius() }
	transition := func(t *BallTranscoder) int { return t.Radius() }
	return map[string]cfg{
		"optmem+2":       {func() (*BallTranscoder, error) { return NewOptMem(width, 2) }, memoryless},
		"optmem+4":       {func() (*BallTranscoder, error) { return NewOptMem(width, 4) }, memoryless},
		"vc+1":           {func() (*BallTranscoder, error) { return NewVC(width, 1) }, transition},
		"vc+3":           {func() (*BallTranscoder, error) { return NewVC(width, 3) }, transition},
		"lowweight-g1+2": {func() (*BallTranscoder, error) { return NewLowWeight(width, 1, 2) }, transition}, // degenerates to vc
		"lowweight-g4+1": {func() (*BallTranscoder, error) { return NewLowWeight(width, 4, 1) }, transition},
		// The parity wire may toggle on top of the transition code.
		"dvs+2": {func() (*BallTranscoder, error) { return NewDVS(width, 2, 80) }, func(t *BallTranscoder) int { return t.Radius() + 1 }},
	}
}

// checkOptimalStream drives one coder over vals checking exact
// round-trips, codeword range and the per-cycle toggle bound.
func checkOptimalStream(t *testing.T, name string, tc Transcoder, bound int, vals []uint64) {
	t.Helper()
	enc, dec := tc.NewEncoder(), tc.NewDecoder()
	busMask := uint64(bus.Mask(enc.BusWidth()))
	mask := uint64(bus.Mask(tc.DataWidth()))
	var prev uint64
	for i, v := range vals {
		v &= mask
		w := uint64(enc.Encode(v))
		if w&^busMask != 0 {
			t.Fatalf("%s cycle %d: codeword %#x exceeds the %d-wire bus", name, i, w, enc.BusWidth())
		}
		if got := dec.Decode(bus.Word(w)); got != v {
			t.Fatalf("%s cycle %d: decode(encode(%#x)) = %#x", name, i, v, got)
		}
		if toggles := bits.OnesCount64(prev ^ w); toggles > bound {
			t.Fatalf("%s cycle %d: %d wires toggled, bound is %d", name, i, toggles, bound)
		}
		prev = w
	}
}

// TestOptimalRoundTripAndBounds is the deterministic form of
// FuzzOptimalRoundTrip over the mixed grid trace, at two widths.
func TestOptimalRoundTripAndBounds(t *testing.T) {
	for _, width := range []int{8, 32} {
		vals := gridTestTrace(width, 4000, int64(width))
		for name, c := range optimalConfigs(width) {
			tc, err := c.build()
			if err != nil {
				t.Fatalf("%s(w%d): %v", name, width, err)
			}
			if got, want := tc.ToggleBound(), c.bound(tc); got != want {
				t.Errorf("%s: ToggleBound %d, want %d", tc.Name(), got, want)
			}
			checkOptimalStream(t, tc.Name(), tc, c.bound(tc), vals)
		}
	}
}

// TestOptMemWeightBound checks the memoryless codebook's defining
// property directly: every codeword's weight stays within the ball
// radius, and the all-zero value maps to the all-zero codeword.
func TestOptMemWeightBound(t *testing.T) {
	tc, err := NewOptMem(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc := tc.NewEncoder()
	for v := uint64(0); v < 1<<12; v++ {
		w := uint64(enc.Encode(v))
		if got := bits.OnesCount64(w); got > tc.Radius() {
			t.Fatalf("codeword for %#x has weight %d > bound %d", v, got, tc.Radius())
		}
	}
	if w := enc.Encode(0); w != 0 {
		t.Errorf("value 0 should map to the zero codeword, got %#x", w)
	}
}

// TestOptimalOpsFormulaic pins the enumerative coders' op counts to the
// documented formula, which the unrank cache must not change.
func TestOptimalOpsFormulaic(t *testing.T) {
	vals := gridTestTrace(16, 777, 5)
	for name, c := range optimalConfigs(16) {
		tc, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc := tc.NewEncoder()
		for _, v := range vals {
			enc.Encode(v)
		}
		ops := enc.(OpReporter).Ops()
		n := uint64(len(vals))
		want := OpStats{Cycles: n, CodeSends: n, CounterIncrements: n * uint64(tc.Stages())}
		if ops != want {
			t.Errorf("%s ops: got %+v want %+v", name, ops, want)
		}
		enc.Reset()
		if got := enc.(OpReporter).Ops(); got != (OpStats{}) {
			t.Errorf("%s: Reset did not clear ops: %+v", name, got)
		}
	}
}

// TestLowWeightCheaperThanVC pins the construction's point: splitting
// into groups shrinks the enumerative datapath (circuit cost) while the
// transition budget grows only additively.
func TestLowWeightCheaperThanVC(t *testing.T) {
	vc, err := NewVC(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := NewLowWeight(32, 4, 1) // same 36-wire bus
	if err != nil {
		t.Fatal(err)
	}
	if lw.BusWidth() != vc.BusWidth() {
		t.Fatalf("bus widths diverge: lowweight %d, vc %d", lw.BusWidth(), vc.BusWidth())
	}
	if lw.Stages() >= vc.Stages() {
		t.Errorf("lowweight datapath (%d stages) should be smaller than vc's (%d)", lw.Stages(), vc.Stages())
	}
	if lw.Radius() < vc.Radius() {
		t.Errorf("lowweight budget %d below the monolithic radius %d — too good to be true", lw.Radius(), vc.Radius())
	}
}

// TestOptimalConstructorBounds exercises the parameter validation.
func TestOptimalConstructorBounds(t *testing.T) {
	bad := []func() (Transcoder, error){
		func() (Transcoder, error) { return NewOptMem(32, 0) },
		func() (Transcoder, error) { return NewOptMem(32, 9) },
		func() (Transcoder, error) { return NewOptMem(61, 2) }, // 63 wires
		func() (Transcoder, error) { return NewVC(32, 0) },
		func() (Transcoder, error) { return NewVC(62, 1) }, // 63 wires
		func() (Transcoder, error) { return NewLowWeight(32, 0, 1) },
		func() (Transcoder, error) { return NewLowWeight(32, 9, 1) },
		func() (Transcoder, error) { return NewLowWeight(2, 4, 1) },  // groups > width
		func() (Transcoder, error) { return NewLowWeight(32, 8, 4) }, // 64 wires
		func() (Transcoder, error) { return NewDVS(32, 2, 40) },
		func() (Transcoder, error) { return NewDVS(32, 2, 101) },
		func() (Transcoder, error) { return NewDVS(60, 2, 80) }, // 63 wires
	}
	for i, build := range bad {
		if tc, err := build(); err == nil {
			t.Errorf("case %d: expected a constructor error, got %s", i, tc.Name())
		}
	}
}

// FuzzOptimalRoundTrip explores the round-trip and toggle-bound
// properties of all four optimal-codebook families on fuzzer-shaped
// traces, and checks each family's cached encoder against an uncached
// per-cycle reference.
func FuzzOptimalRoundTrip(f *testing.F) {
	f.Add([]byte("buspower"))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144})
	seed := make([]byte, 300)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		vals := fuzzValues(data)
		for name, c := range optimalConfigs(16) {
			tc, err := c.build()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkOptimalStream(t, name, tc, c.bound(tc), vals)
			diffUnrankCache(t, name, tc, vals)
		}
	})
}

// enumReference returns a per-cycle reference encoder for an
// enumerative coder that computes every image afresh, bypassing the
// encoder's unrank cache: the image itself for optmem, and the prefix XOR
// of the images for the transition codes.
func enumReference(tc *BallTranscoder) func(v uint64) bus.Word {
	var state uint64
	return func(v uint64) bus.Word {
		if !tc.transition {
			return bus.Word(tc.image(v))
		}
		state ^= tc.image(v)
		return bus.Word(state)
	}
}

// diffUnrankCache checks that the cached encoder's words equal the
// uncached reference on every cycle, across a Reset that keeps the
// cache warm.
func diffUnrankCache(t *testing.T, name string, tc *BallTranscoder, vals []uint64) {
	t.Helper()
	enc := tc.NewEncoder()
	mask := uint64(bus.Mask(tc.DataWidth()))
	for pass := 0; pass < 2; pass++ {
		enc.Reset()
		ref := enumReference(tc)
		for i, v := range vals {
			v &= mask
			if got, want := enc.Encode(v), ref(v); got != want {
				t.Fatalf("%s pass %d cycle %d value %#x: encoder sent %#x, reference %#x", name, pass, i, v, got, want)
			}
		}
	}
}

// TestUnrankCacheCollisions drives every enumerative family over a
// trace that alternates values sharing one slot of the direct-mapped
// unrank cache, so each lookup finds a neighbour's image in its slot.
func TestUnrankCacheCollisions(t *testing.T) {
	const width = 16
	var probe unrankCache
	probe.init()
	target, _ := probe.slot(0)
	same := []uint64{0}
	for v := uint64(1); v < 1<<width && len(same) < 4; v++ {
		if img, _ := probe.slot(v); img == target {
			same = append(same, v)
		}
	}
	if len(same) < 4 {
		t.Fatalf("found only %d values sharing a slot", len(same))
	}
	var vals []uint64
	for i := 0; i < 200; i++ {
		vals = append(vals, same[i%3], same[i%len(same)])
	}
	for name, c := range optimalConfigs(width) {
		tc, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diffUnrankCache(t, name, tc, vals)
	}
}
