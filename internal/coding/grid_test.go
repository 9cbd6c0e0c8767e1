package coding

import (
	"math/rand"
	"slices"
	"testing"

	"buspower/internal/bus"
)

// gridTestTrace mixes the regimes the schemes care about: strided runs,
// repeats, dictionary-friendly reuse and noise.
func gridTestTrace(width, n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(bus.Mask(width))
	vals := make([]uint64, n)
	v := uint64(0)
	stride := uint64(1)
	for i := range vals {
		switch rng.Intn(10) {
		case 0, 1, 2: // strided run
			v += stride
		case 3: // new stride
			stride = uint64(rng.Intn(9) + 1)
			v += stride
		case 4, 5: // repeat
		case 6, 7: // recent value (dictionary hit)
			if i > 4 {
				v = vals[i-1-rng.Intn(4)]
			}
		default: // noise
			v = rng.Uint64()
		}
		vals[i] = v & mask
	}
	return vals
}

// gridTestCells builds a representative scheme/λ grid: stride banks of
// several depths, stateless coders, inversion families with λ fan-out,
// and dictionary schemes (a window size sweep and a Context table) that
// exercise the scalar fallback.
func gridTestCells(t *testing.T, width int) []GridCell {
	t.Helper()
	var cells []GridCell
	mk := func(tc Transcoder, err error, lambdas ...float64) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lambdas {
			cells = append(cells, GridCell{T: tc, Lambda: l})
		}
	}
	for _, k := range []int{1, 2, 3, 5, 8} {
		st, err := NewStride(width, k, 1)
		mk(st, err, 1)
	}
	st25, err := NewStride(width, 2, 2.5) // fractional assumed Λ: float cost path
	mk(st25, err, 2.5)
	mk(NewRaw(width), nil, 1, 2) // λ fan-out over one config
	g, err := NewGray(width)
	mk(g, err, 1)
	sp, err := NewSpatial(4)
	mk(sp, err, 1)
	pats, err := DefaultInversionPatterns(width, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, assumed := range []float64{0, 1} {
		inv, err := NewInversion(width, pats, assumed)
		mk(inv, err, 0.5, 1, 2) // shared config read at three Λ
	}
	// A window register-size sweep, plus one size at a second assumed Λ
	// read at two Λ: every window configuration is a scalar cell.
	for _, n := range []int{2, 8, 64} {
		w, err := NewWindow(width, n, 1)
		mk(w, err, 1)
	}
	w0, err := NewWindow(width, 8, 0)
	mk(w0, err, 0.5, 1)
	ctx, err := NewContext(ContextConfig{Width: width, TableSize: 16, ShiftEntries: 4, DividePeriod: 64, Lambda: 1})
	mk(ctx, err, 1)
	// The optimal-codebook families: scalar cells with formulaic ops,
	// λ fan-out over one config for vc.
	om, err := NewOptMem(width, 2)
	mk(om, err, 1)
	vc, err := NewVC(width, 2)
	mk(vc, err, 1, 2)
	lw, err := NewLowWeight(width, 4, 1)
	mk(lw, err, 1)
	dvs, err := NewDVS(width, 2, 80)
	mk(dvs, err, 1)
	return cells
}

func compareGridResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if got.Scheme != want.Scheme || got.DataWidth != want.DataWidth || got.CodedWidth != want.CodedWidth || got.Lambda != want.Lambda {
		t.Fatalf("%s: header mismatch: got %q/%d/%d/λ%g want %q/%d/%d/λ%g",
			label, got.Scheme, got.DataWidth, got.CodedWidth, got.Lambda,
			want.Scheme, want.DataWidth, want.CodedWidth, want.Lambda)
	}
	cmp := func(part string, a, b *bus.Meter) {
		t.Helper()
		if a.Cycles() != b.Cycles() || a.Transitions() != b.Transitions() || a.Couplings() != b.Couplings() || a.State() != b.State() {
			t.Errorf("%s %s meter: got cycles/trans/coup/state %d/%d/%d/%#x want %d/%d/%d/%#x",
				label, part, b.Cycles(), b.Transitions(), b.Couplings(), b.State(),
				a.Cycles(), a.Transitions(), a.Couplings(), a.State())
		}
	}
	cmp("raw", want.Raw, got.Raw)
	cmp("coded", want.Coded, got.Coded)
	if got.Ops != want.Ops {
		t.Errorf("%s ops mismatch:\n got %+v\nwant %+v", label, got.Ops, want.Ops)
	}
}

// TestEvaluateGridMatchesScalar is the tentpole differential: every grid
// cell must be bit-identical to an individual scalar Evaluate of the same
// (transcoder, λ), under every verification policy.
func TestEvaluateGridMatchesScalar(t *testing.T) {
	const width = 16
	trace := gridTestTrace(width, 3000, 7)
	cells := gridTestCells(t, width)
	for _, verify := range []VerifyPolicy{VerifySampled(64), VerifyOff, VerifyFull} {
		t.Run(verify.String(), func(t *testing.T) {
			got, err := EvaluateGrid(cells, trace, nil, verify, GridOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(cells) {
				t.Fatalf("got %d results for %d cells", len(got), len(cells))
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
}

// TestEvaluateGridSharesRawMeter checks that a caller-provided raw meter
// is adopted for matching widths and other widths are measured once.
func TestEvaluateGridSharesRawMeter(t *testing.T) {
	const width = 16
	trace := gridTestTrace(width, 500, 11)
	raw := MeasureRawValues(width, trace)
	st, err := NewStride(width, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpatial(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateGrid([]GridCell{{T: st, Lambda: 1}, {T: sp, Lambda: 1}}, trace, raw, VerifyOff, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Raw != raw {
		t.Error("width-matched cell did not adopt the shared raw meter")
	}
	if res[1].Raw == raw || res[1].Raw.Width() != 3 {
		t.Error("width-3 cell should get its own raw meter")
	}
}

func TestEvaluatedCyclesCountsCells(t *testing.T) {
	const width = 8
	trace := gridTestTrace(width, 300, 3)
	st, err := NewStride(width, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cells := []GridCell{{T: st, Lambda: 1}, {T: st, Lambda: 2}, {T: NewRaw(width), Lambda: 1}}
	before := EvaluatedCycles()
	if _, err := EvaluateGrid(cells, trace, nil, VerifyOff, GridOptions{}); err != nil {
		t.Fatal(err)
	}
	if got, want := EvaluatedCycles()-before, uint64(len(trace)*len(cells)); got != want {
		t.Errorf("EvaluatedCycles delta: got %d want %d", got, want)
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
	want, err := EvaluateGrid(cells, trace, nil, VerifySampled(16), GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deep := NewStrideTape(width, 40, trace)
	for _, tc := range []struct {
		name string
		tape *StrideTape
	}{{"deeper", deep}, {"nil", nil}} {
		var asked []int
		got, err := EvaluateGrid(cells, trace, nil, VerifySampled(16), GridOptions{
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
	if _, err := EvaluateGrid(cells, trace, nil, VerifyFull, GridOptions{
		Tapes: func(int, int) *StrideTape {
			t.Fatal("VerifyFull must take the scalar path, not a tape")
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
}

// testStreamMatchesEncode drives one encoder with per-cycle Encode and a
// second with encodeStream over uneven chunks (with interleaved Encode
// calls to prove state stays exchangeable), comparing meters and ops.
func testStreamMatchesEncode(t *testing.T, mk func() Transcoder, trace []uint64) {
	t.Helper()
	tc := mk()
	mask := uint64(bus.Mask(tc.DataWidth()))

	ref := tc.NewEncoder()
	mRef := bus.NewMeterLite(ref.BusWidth())
	mRef.Record(0)
	stRef := mRef.Stream()
	for _, v := range trace {
		stRef.Record(ref.Encode(v & mask))
	}
	stRef.Flush()

	enc := mk().NewEncoder()
	se, ok := enc.(streamEncoder)
	if !ok {
		t.Fatalf("%s encoder does not implement streamEncoder", tc.Name())
	}
	m := bus.NewMeterLite(enc.BusWidth())
	m.Record(0)
	st := m.Stream()
	chunks := []int{1, 7, 64, 256, 3}
	i, ci := 0, 0
	for i < len(trace) {
		n := min(chunks[ci%len(chunks)], len(trace)-i)
		ci++
		se.encodeStream(trace[i:i+n], &st)
		i += n
		if i < len(trace) { // interleave one scalar Encode between chunks
			st.Record(enc.Encode(trace[i] & mask))
			i++
		}
	}
	st.Flush()

	if m.Cycles() != mRef.Cycles() || m.Transitions() != mRef.Transitions() || m.Couplings() != mRef.Couplings() || m.State() != mRef.State() {
		t.Errorf("%s: stream meter diverged: got %d/%d/%d/%#x want %d/%d/%d/%#x", tc.Name(),
			m.Cycles(), m.Transitions(), m.Couplings(), m.State(),
			mRef.Cycles(), mRef.Transitions(), mRef.Couplings(), mRef.State())
	}
	opsOf := func(e Encoder) OpStats {
		if r, ok := e.(OpReporter); ok {
			return r.Ops()
		}
		return OpStats{}
	}
	if got, want := opsOf(enc), opsOf(ref); got != want {
		t.Errorf("%s: stream ops diverged:\n got %+v\nwant %+v", tc.Name(), got, want)
	}
}

func TestInversionEncodeStreamMatchesEncode(t *testing.T) {
	trace := gridTestTrace(16, 2500, 22)
	for _, lambda := range []float64{0, 1, 2.5} { // int and float cost paths
		testStreamMatchesEncode(t, func() Transcoder {
			pats, err := DefaultInversionPatterns(16, 4)
			if err != nil {
				t.Fatal(err)
			}
			inv, err := NewInversion(16, pats, lambda)
			if err != nil {
				t.Fatal(err)
			}
			return inv
		}, trace)
	}
}

func TestContextEncodeStreamMatchesEncode(t *testing.T) {
	trace := gridTestTrace(16, 2500, 23)
	for _, cfg := range []ContextConfig{
		{Width: 16, TableSize: 8, ShiftEntries: 4, DividePeriod: 128, Lambda: 1},
		{Width: 16, TableSize: 32, ShiftEntries: 16, DividePeriod: 4096, Lambda: 1},
		{Width: 16, TableSize: 8, ShiftEntries: 4, DividePeriod: 64, TransitionBased: true, Lambda: 1},
	} {
		testStreamMatchesEncode(t, func() Transcoder {
			ctx, err := NewContext(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ctx
		}, trace)
	}
}

// TestChannelIntCostMatchesFloat pins the fused sendRaw — uint64 ranking
// for integral Λ, float64(T)+Λ·float64(C) otherwise — to an independent
// reference: build both candidate bus states explicitly, rank them with
// two bus.CostMasked calls, and keep the raw form on a tie. Widths cover
// a one-wire bus and a 64-wire coded bus (62 data wires).
func TestChannelIntCostMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, width := range []int{1, 14, 32, 62} {
		for _, lambda := range []float64{0, 0.1, 0.25, 1.0 / 3, 0.5, 1, 2, 1e-9, 1e6} {
			c := newChannel(width, lambda)
			dataMask := bus.Mask(width)
			pairMask := bus.Mask(width + 1)
			ctlR, ctlI := bus.Word(1)<<uint(width), bus.Word(1)<<uint(width+1)
			state := bus.Word(0)
			var wantT, wantC float64 // Σ self-transitions and couplings of the chosen states
			for i := 0; i < 5000; i++ {
				v := rng.Uint64()
				if i%7 == 0 {
					v = uint64(state) // repeats and near-repeats force ties
				}
				keep := state &^ dataMask
				candRaw := (keep | bus.Word(v)&dataMask) ^ ctlR
				candInv := (keep | ^bus.Word(v)&dataMask) ^ ctlI
				want, wantInv := candRaw, false
				if bus.CostMasked(state, candInv, pairMask, lambda) < bus.CostMasked(state, candRaw, pairMask, lambda) {
					want, wantInv = candInv, true
				}
				got, gotInv := c.sendRaw(v)
				if got != want || gotInv != wantInv {
					t.Fatalf("w=%d λ=%g cycle %d: sendRaw (%#x,%v), reference (%#x,%v)", width, lambda, i, got, gotInv, want, wantInv)
				}
				self := bus.CostMasked(state, want, pairMask, 0)
				wantT += self
				wantC += bus.CostMasked(state, want, pairMask, 1) - self
				state = want
			}
			if float64(c.accT) != wantT || float64(c.accC) != wantC {
				t.Fatalf("w=%d λ=%g: accumulated (T,C) = (%d,%d), reference (%g,%g)", width, lambda, c.accT, c.accC, wantT, wantC)
			}
		}
	}
}

// FuzzGridMatchesScalar cross-checks every grid cell — the fast paths
// and the window cells beside them — against the scalar evaluator on
// fuzzer-shaped traces.
func FuzzGridMatchesScalar(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 250, 0, 0, 9})
	f.Add([]byte{0xFF, 0xFE, 0xFD})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		trace := make([]uint64, len(data))
		for i, b := range data {
			trace[i] = uint64(b) * 0x0101
		}
		const width = 10
		var cells []GridCell
		for _, k := range []int{1, 3} {
			st, err := NewStride(width, k, 1)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, GridCell{T: st, Lambda: 1})
		}
		g, err := NewGray(width)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, GridCell{T: NewRaw(width), Lambda: 1}, GridCell{T: g, Lambda: 1})
		vc, err := NewVC(width, 2)
		if err != nil {
			t.Fatal(err)
		}
		lw, err := NewLowWeight(width, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, GridCell{T: vc, Lambda: 1}, GridCell{T: lw, Lambda: 1})
		for _, n := range []int{2, 5} {
			w, err := NewWindow(width, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, GridCell{T: w, Lambda: 1})
		}
		got, err := EvaluateGrid(cells, trace, nil, VerifySampled(32), GridOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			var ev Evaluator
			ev.Verify = VerifySampled(32)
			ev.Use(c.T)
			want, err := ev.Evaluate(trace, c.Lambda, nil)
			if err != nil {
				t.Fatal(err)
			}
			compareGridResult(t, c.T.Name(), want, got[i])
		}
	})
}

// TestStrideTapeDeepenMatchesNew pins DeepenStrideTape to the reference
// NewStrideTape: deepening a tape from depth d to D must give exactly
// the tape recorded at depth D, on random and workload traces, including
// a deepening past the depth cap and a no-op request.
func TestStrideTapeDeepenMatchesNew(t *testing.T) {
	traces := map[string][]uint64{
		"random":   gridTestTrace(32, 4000, 3),
		"random12": gridTestTrace(12, 4000, 9),
		"li-reg":   realTrace(t, "li", "reg"),
		"swim-mem": realTrace(t, "swim", "mem"),
	}
	for name, tr := range traces {
		width := 32
		if name == "random12" {
			width = 12
		}
		for _, depths := range [][2]int{{1, 2}, {2, 8}, {4, 32}, {16, 17}, {64, 400}, {8, 8}, {8, 3}} {
			d, D := depths[0], depths[1]
			base := NewStrideTape(width, d, tr)
			recs, hist, raws := slices.Clone(base.recs), slices.Clone(base.hist), base.raws
			got := DeepenStrideTape(base, D, tr)
			want := NewStrideTape(width, max(d, D), tr)
			if got.width != want.width || got.maxK != want.maxK || got.raws != want.raws ||
				!slices.Equal(got.recs, want.recs) || !slices.Equal(got.hist, want.hist) {
				t.Fatalf("%s: Deepen(%d→%d) differs from NewStrideTape(%d): depth %d/%d raws %d/%d",
					name, d, D, max(d, D), got.maxK, want.maxK, got.raws, want.raws)
			}
			if base.maxK != d || base.raws != raws || !slices.Equal(base.recs, recs) || !slices.Equal(base.hist, hist) {
				t.Fatalf("%s: Deepen(%d→%d) modified the tape it started from", name, d, D)
			}
		}
	}
}
