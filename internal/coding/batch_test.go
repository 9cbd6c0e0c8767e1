package coding

import (
	"fmt"
	"testing"

	"buspower/internal/bus"
)

// windowFamilyCells builds one window family (shared width and assumed
// Λ, varying register size), one cell per size.
func windowFamilyCells(t testing.TB, width int, sizes []int, lambda float64) []GridCell {
	t.Helper()
	cells := make([]GridCell, 0, len(sizes))
	for _, n := range sizes {
		w, err := NewWindow(width, n, lambda)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, GridCell{T: w, Lambda: lambda})
	}
	return cells
}

// TestWindowNonInclusion documents why the family pass keeps exact
// per-size rings instead of deriving small registers from the largest
// one's probe record: FIFO insert-on-miss dictionaries lack the
// inclusion property. After a b c d a b e a b c d, the value e HITS the
// 3-entry register while MISSING the 4-entry one — so no per-cycle
// record of the superset register can reconstruct a subset's answers.
func TestWindowNonInclusion(t *testing.T) {
	const width = 8
	seq := []uint64{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4}
	enc3 := mustWindowEncoder(t, width, 3)
	enc4 := mustWindowEncoder(t, width, 4)
	for _, v := range seq {
		enc3.Encode(v)
		enc4.Encode(v)
	}
	b3, b4 := enc3.ops, enc4.ops
	enc3.Encode(5)
	enc4.Encode(5)
	if enc3.ops.CodeSends != b3.CodeSends+1 {
		t.Fatalf("3-entry register should hit on the final value (ops %+v → %+v)", b3, enc3.ops)
	}
	if enc4.ops.RawSends != b4.RawSends+1 {
		t.Fatalf("4-entry register should miss on the final value (ops %+v → %+v)", b4, enc4.ops)
	}
}

func mustWindowEncoder(t testing.TB, width, entries int) *windowEncoder {
	t.Helper()
	w, err := NewWindow(width, entries, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w.NewEncoder().(*windowEncoder)
}

// TestWindowFamilyMatchesScalar is the batch-engine differential: every
// family member's meter and OpStats must be bit-identical to a scalar
// Evaluate of that member alone, across widths, register-size sets,
// integral and fractional assumed Λ, verify policies, and traces that
// hit the fresh-zero, all-miss and all-hit regimes.
func TestWindowFamilyMatchesScalar(t *testing.T) {
	traces := map[string][]uint64{
		"mixed": gridTestTrace(16, 3000, 7),
		"short": gridTestTrace(16, 97, 3), // shorter than the verify head window
		"zeros": make([]uint64, 500),      // fresh-zero LAST hits throughout
		"stride": func() []uint64 {
			v := make([]uint64, 600)
			for i := range v {
				v[i] = uint64(i * 3)
			}
			return v
		}(),
		"reuse": func() []uint64 {
			v := make([]uint64, 800)
			for i := range v {
				v[i] = uint64(i % 7 * 1000)
			}
			return v
		}(),
	}
	families := []struct {
		width  int
		sizes  []int
		lambda float64
	}{
		{16, []int{2, 3}, 1},
		{16, []int{2, 4, 8, 12, 16, 24, 32, 48, 64}, 1},
		{16, []int{4, 8, 32}, 3},
		{8, []int{3, 5, 9}, 0},
		{16, []int{8, 16}, 2.5}, // fractional Λ: float raw-cost path
		{32, []int{2, 8, 64, 128}, 1},
	}
	for tname, trace := range traces {
		for _, fam := range families {
			for _, verify := range []VerifyPolicy{VerifySampled(64), VerifyOff} {
				label := fmt.Sprintf("%s/w%d%v/l%g/%s", tname, fam.width, fam.sizes, fam.lambda, verify)
				cells := windowFamilyCells(t, fam.width, fam.sizes, fam.lambda)
				got, err := EvaluateGrid(cells, trace, nil, verify)
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range cells {
					var ev Evaluator
					ev.Verify = verify
					ev.Use(c.T)
					want, err := ev.Evaluate(trace, c.Lambda, nil)
					if err != nil {
						t.Fatal(err)
					}
					compareGridResult(t, label+"/"+c.T.Name(), want, got[i])
				}
			}
		}
	}
}

// TestWindowFamilyFullVerifyFallsBack pins the scalar-fallback trigger:
// under VerifyFull the family pass must step aside (a live decoder must
// observe every coded word) and results still match scalar evaluation.
func TestWindowFamilyFullVerifyFallsBack(t *testing.T) {
	trace := gridTestTrace(16, 1500, 21)
	cells := windowFamilyCells(t, 16, []int{2, 8, 32}, 1)
	got, err := EvaluateGrid(cells, trace, nil, VerifyFull)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		var ev Evaluator
		ev.Verify = VerifyFull
		ev.Use(c.T)
		want, err := ev.Evaluate(trace, c.Lambda, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareGridResult(t, c.T.Name(), want, got[i])
	}
}

// TestWindowFamilyInMixedGrid runs the family inside a grid that also
// carries stride, stateless, inversion and context cells, so the router
// proves it only intercepts family members.
func TestWindowFamilyInMixedGrid(t *testing.T) {
	const width = 16
	trace := gridTestTrace(width, 2000, 13)
	cells := gridTestCells(t, width)
	cells = append(cells, windowFamilyCells(t, width, []int{4, 16, 64}, 1)...)
	for _, verify := range []VerifyPolicy{VerifySampled(64), VerifyOff} {
		got, err := EvaluateGrid(cells, trace, nil, verify)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			var ev Evaluator
			ev.Verify = verify
			ev.Use(c.T)
			want, err := ev.Evaluate(trace, c.Lambda, nil)
			if err != nil {
				t.Fatal(err)
			}
			compareGridResult(t, c.T.Name(), want, got[i])
		}
	}
}

// TestEvaluateBatchMatchesGrid: the multi-trace fan-out must be
// trace-major and bit-identical to independent EvaluateGrid calls, with
// shared scratch never leaking state between traces.
func TestEvaluateBatchMatchesGrid(t *testing.T) {
	const width = 16
	cells := gridTestCells(t, width)
	cells = append(cells, windowFamilyCells(t, width, []int{4, 8, 32}, 1)...)
	traces := []BatchTrace{
		{Values: gridTestTrace(width, 2000, 1)},
		{Values: gridTestTrace(width, 1500, 2)},
		{Values: make([]uint64, 300)},
		{Values: gridTestTrace(width, 2000, 1)}, // repeat of trace 0: same answers
	}
	traces[1].Raw = MeasureRawValues(width, traces[1].Values)
	verify := VerifySampled(64)
	got, err := EvaluateBatch(cells, traces, verify)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(traces) {
		t.Fatalf("got %d trace results for %d traces", len(got), len(traces))
	}
	for ti, tr := range traces {
		want, err := EvaluateGrid(cells, tr.Values, tr.Raw, verify)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			compareGridResult(t, fmt.Sprintf("trace%d/%s", ti, c.T.Name()), want[i], got[ti][i])
		}
	}
	if got[1][0].Raw != traces[1].Raw {
		t.Error("pre-measured raw meter was not adopted")
	}
}

// TestGridSlicedProvider: a caller-supplied transposition is used as-is
// (no rebuild), and a provider returning nil falls back to building one.
func TestGridSlicedProvider(t *testing.T) {
	const width = 12
	trace := gridTestTrace(width, 700, 5)
	g, err := NewGray(width)
	if err != nil {
		t.Fatal(err)
	}
	cells := []GridCell{{T: NewRaw(width), Lambda: 1}, {T: g, Lambda: 1}}
	want, err := EvaluateGrid(cells, trace, nil, VerifyOff)
	if err != nil {
		t.Fatal(err)
	}
	pre := bus.NewSlicedTrace(width, trace)
	calls := 0
	got, err := EvaluateGridOpts(cells, trace, nil, VerifyOff, GridOptions{
		Sliced: func(w int) *bus.SlicedTrace {
			calls++
			if w != width {
				t.Fatalf("provider asked for width %d, want %d", w, width)
			}
			return pre
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("provider called %d times, want 1 (raw and gray share the transposition)", calls)
	}
	for i, c := range cells {
		compareGridResult(t, c.T.Name(), want[i], got[i])
	}
	got, err = EvaluateGridOpts(cells, trace, nil, VerifyOff, GridOptions{
		Sliced: func(int) *bus.SlicedTrace { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		compareGridResult(t, "nil-provider/"+c.T.Name(), want[i], got[i])
	}
}

// TestGridTapeProvider: stride cells replay a caller-supplied tape —
// including one deeper than any bank in the grid, which is what a tape
// memo hands back after serving a deeper request — with results
// identical to the grid's own tape, a provider returning nil falls back
// to building one, and VerifyFull never asks for a tape.
func TestGridTapeProvider(t *testing.T) {
	const width = 12
	trace := gridTestTrace(width, 900, 7)
	var cells []GridCell
	for _, k := range []int{1, 3, 5} {
		st, err := NewStride(width, k, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, GridCell{T: st, Lambda: 1})
	}
	want, err := EvaluateGrid(cells, trace, nil, VerifySampled(16))
	if err != nil {
		t.Fatal(err)
	}
	deep := NewStrideTape(width, 40, trace)
	for _, tc := range []struct {
		name string
		tape *StrideTape
	}{{"deeper", deep}, {"nil", nil}} {
		var asked []int
		got, err := EvaluateGridOpts(cells, trace, nil, VerifySampled(16), GridOptions{
			Tapes: func(w, k int) *StrideTape {
				if w != width {
					t.Fatalf("provider asked for width %d, want %d", w, width)
				}
				asked = append(asked, k)
				return tc.tape
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(asked) != 1 || asked[0] != 5 {
			t.Errorf("%s: provider asked for depths %v, want one request for the deepest bank (5)", tc.name, asked)
		}
		for i, c := range cells {
			compareGridResult(t, tc.name+"/"+c.T.Name(), want[i], got[i])
		}
	}
	if _, err := EvaluateGridOpts(cells, trace, nil, VerifyFull, GridOptions{
		Tapes: func(int, int) *StrideTape {
			t.Fatal("VerifyFull must take the scalar path, not a tape")
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
}

// FuzzWindowFamilyMatchesScalar fuzzes (trace, family-spec) pairs
// through the batch pass and pins every member to scalar Evaluate.
func FuzzWindowFamilyMatchesScalar(f *testing.F) {
	f.Add(uint16(0), []byte{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5})
	f.Add(uint16(0xFFFF), []byte{0, 0, 0, 7, 7, 9})
	f.Add(uint16(0x1234), []byte{250, 250, 1, 250, 2, 250, 3, 250})
	f.Fuzz(func(t *testing.T, spec uint16, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		width := 4 + int(spec&7)                       // 4..11
		lambda := []float64{0, 1, 2, 1.5}[(spec>>3)&3] // incl. fractional
		allSizes := []int{2, 3, 4, 6, 8, 12, 16, 24}
		var sizes []int
		for i, n := range allSizes {
			if spec>>(5+uint(i))&1 == 1 {
				sizes = append(sizes, n)
			}
		}
		if len(sizes) < 2 {
			sizes = []int{2, 8}
		}
		trace := make([]uint64, len(data))
		for i, b := range data {
			trace[i] = uint64(b) * 0x0101
		}
		verify := VerifySampled(16)
		if spec&0x8000 != 0 {
			verify = VerifyOff
		}
		// Keep only sizes whose codebook exists at this width; narrow
		// widths cannot host the larger registers.
		var cells []GridCell
		for _, n := range sizes {
			w, err := NewWindow(width, n, lambda)
			if err != nil {
				continue
			}
			cells = append(cells, GridCell{T: w, Lambda: lambda})
		}
		if len(cells) < 2 {
			t.Skip("family too small at this width")
		}
		got, err := EvaluateGrid(cells, trace, nil, verify)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			var ev Evaluator
			ev.Verify = verify
			ev.Use(c.T)
			want, err := ev.Evaluate(trace, c.Lambda, nil)
			if err != nil {
				t.Fatal(err)
			}
			compareGridResult(t, c.T.Name(), want, got[i])
		}
	})
}
