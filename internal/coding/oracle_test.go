package coding

import (
	"math/rand"
	"testing"

	"buspower/internal/bus"
	"buspower/internal/workload"
)

// The oracle below counts the paper's eq. (1)-(3) activity the way a
// bit transition counter would: wire by wire and pair by pair, with no
// word-parallel arithmetic. It shares no code with bus.Meter or the
// channel's fused ranking, so agreement with both is independent
// evidence that the fast paths count what the equations define.

// oracleCounts returns the self transitions T (wires that toggle) and
// coupling events C of one bus transition old → cur over the low wires
// wires: an adjacent pair in which exactly one wire toggles costs 1, and
// a pair whose wires both toggle in opposite directions costs 2.
func oracleCounts(old, cur bus.Word, wires int) (T, C uint64) {
	bit := func(w bus.Word, i int) int { return int(w>>uint(i)) & 1 }
	for i := 0; i < wires; i++ {
		if bit(old, i) != bit(cur, i) {
			T++
		}
	}
	for i := 0; i+1 < wires; i++ {
		toggleLo := bit(old, i) != bit(cur, i)
		toggleHi := bit(old, i+1) != bit(cur, i+1)
		switch {
		case toggleLo != toggleHi:
			C++
		case toggleLo && toggleHi && bit(old, i) != bit(old, i+1):
			C += 2
		}
	}
	return T, C
}

// oracleRawChoice ranks the raw and inverted forms of v from bus state
// old the way sendRaw's contract states: the data wires carry v (raw)
// or its complement (inverted), the matching control wire toggles, and
// the cheaper float64(T)+Λ·float64(C) wins, a tie going to raw.
func oracleRawChoice(old bus.Word, v uint64, width int, lambda float64) (next bus.Word, inverted bool, T, C uint64) {
	wires := width + 2
	var raw, inv bus.Word
	for i := 0; i < width; i++ {
		b := bus.Word(v>>uint(i)) & 1
		raw |= b << uint(i)
		inv |= (1 - b) << uint(i)
	}
	rawCtl := old>>uint(width)&1 ^ 1
	invCtl := old>>uint(width+1)&1 ^ 1
	raw |= rawCtl<<uint(width) | (old>>uint(width+1)&1)<<uint(width+1)
	inv |= (old>>uint(width)&1)<<uint(width) | invCtl<<uint(width+1)
	tRaw, cRaw := oracleCounts(old, raw, wires)
	tInv, cInv := oracleCounts(old, inv, wires)
	if float64(tInv)+lambda*float64(cInv) < float64(tRaw)+lambda*float64(cRaw) {
		return inv, true, tInv, cInv
	}
	return raw, false, tRaw, cRaw
}

// TestSendRawMatchesOracle drives sendRaw from random bus states
// (control wires included) and checks its choice, its next state and its
// accT/accC accounting against the naive oracle.
func TestSendRawMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, width := range []int{1, 2, 14, 32, 61, 62} {
		busMask := bus.Mask(width + 2)
		for _, lambda := range []float64{0, 0.1, 0.25, 1.0 / 3, 0.5, 1, 2, 1e6} {
			ch := newChannel(width, lambda)
			for i := 0; i < 3000; i++ {
				old := bus.Word(rng.Uint64()) & busMask
				v := rng.Uint64()
				if i%5 == 0 { // low-weight and near-state values exercise ties
					v = uint64(old) ^ 1<<uint(rng.Intn(width))
				}
				v &= uint64(bus.Mask(width))
				wantNext, wantInv, wantT, wantC := oracleRawChoice(old, v, width, lambda)
				ch.state = old
				ch.beginBlock()
				next, inv := ch.sendRaw(v)
				if next != wantNext || inv != wantInv || ch.state != wantNext {
					t.Fatalf("width %d λ=%g state %#x value %#x: sendRaw → %#x inverted=%v, oracle %#x inverted=%v",
						width, lambda, old, v, next, inv, wantNext, wantInv)
				}
				if ch.accT != wantT || ch.accC != wantC {
					t.Fatalf("width %d λ=%g state %#x value %#x: accounted T=%d C=%d, oracle T=%d C=%d",
						width, lambda, old, v, ch.accT, ch.accC, wantT, wantC)
				}
			}
		}
	}
}

// realTrace simulates a short run of a workload and returns one of its
// bus traces ("reg" or "mem").
func realTrace(t *testing.T, name, busName string) []uint64 {
	t.Helper()
	ts, err := workload.Traces(name, workload.RunConfig{MaxInstructions: 300_000, MaxBusValues: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if busName == "mem" {
		return ts.Mem
	}
	return ts.Reg
}

// oracleEncode encodes trace cycle by cycle through a fresh encoder and
// counts the coded bus's activity with the oracle, from the all-zero
// power-up state.
func oracleEncode(tc Transcoder, trace []uint64) (T, C uint64) {
	enc := tc.NewEncoder()
	wires := enc.BusWidth()
	mask := uint64(bus.Mask(tc.DataWidth()))
	var prev bus.Word
	for _, v := range trace {
		w := enc.Encode(v & mask)
		dt, dc := oracleCounts(prev, w, wires)
		T, C = T+dt, C+dc
		prev = w
	}
	return T, C
}

// TestDictionaryMeterMatchesOracle re-meters a Context run (li, register
// bus) and a Window run (swim, memory bus) with the oracle: the coded
// words of a per-cycle encode, counted wire by wire, must sum to the
// evaluator's coded-bus meter, which the bulk encode path fills from the
// channel's self-accounting.
func TestDictionaryMeterMatchesOracle(t *testing.T) {
	ctx, err := NewContext(ContextConfig{Width: 32, TableSize: 24, ShiftEntries: 8, DividePeriod: 4096, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	win, err := NewWindow(32, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		tc    Transcoder
		trace []uint64
	}{
		{ctx, realTrace(t, "li", "reg")},
		{win, realTrace(t, "swim", "mem")},
	} {
		var ev Evaluator
		ev.Use(run.tc)
		ev.Verify = VerifySampled(0)
		res, err := ev.Evaluate(run.trace, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		T, C := oracleEncode(run.tc, run.trace)
		if res.Coded.Transitions() != T || res.Coded.Couplings() != C {
			t.Errorf("%s: meter T=%d C=%d, oracle T=%d C=%d",
				run.tc.Name(), res.Coded.Transitions(), res.Coded.Couplings(), T, C)
		}
	}
}

// TestGridCellsMatchOracle re-meters EvaluateGrid's stateless,
// enumerative and stride cells on workload traces with the oracle: each
// cell's coded T and C must equal the wire-by-wire count of a per-cycle
// encode. The shallow stride bank replays a tape the grid records
// itself; the deep bank is served through a tape provider that deepens
// a shallower tape, as the experiments layer's tape memo does, so its
// replay runs on a StrideTape.Deepen result.
func TestGridCellsMatchOracle(t *testing.T) {
	specs := []string{
		"raw", "gray", "spatial:width=4",
		"optmem:extra=2", "vc:extra=2", "lowweight:groups=4,extra=1", "dvs:extra=2,vdd=80",
		"stride:strides=4,lambda=0.5",
	}
	for _, run := range []struct {
		workload, bus string
	}{{"li", "reg"}, {"swim", "mem"}} {
		trace := realTrace(t, run.workload, run.bus)
		var cells []GridCell
		for _, spec := range specs {
			tc, err := BuildScheme(spec)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, GridCell{T: tc, Lambda: 1})
		}
		results, err := EvaluateGrid(cells, trace, nil, VerifySampled(0), GridOptions{})
		if err != nil {
			t.Fatal(err)
		}
		deep, err := NewStride(32, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		shallow := NewStrideTape(32, 4, trace)
		deepened := false
		opts := GridOptions{Tapes: func(width, k int) *StrideTape {
			deepened = deepened || k > shallow.Depth()
			return shallow.Deepen(k, trace)
		}}
		deepRes, err := EvaluateGrid([]GridCell{{T: deep, Lambda: 1}}, trace, nil, VerifySampled(0), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !deepened {
			t.Fatalf("%s/%s: the grid never asked for a tape deeper than %d", run.workload, run.bus, shallow.Depth())
		}
		cells = append(cells, GridCell{T: deep, Lambda: 1})
		results = append(results, deepRes...)
		for i, res := range results {
			T, C := oracleEncode(cells[i].T, trace)
			if res.Coded.Transitions() != T || res.Coded.Couplings() != C {
				t.Errorf("%s/%s %s: meter T=%d C=%d, oracle T=%d C=%d", run.workload, run.bus,
					res.Scheme, res.Coded.Transitions(), res.Coded.Couplings(), T, C)
			}
		}
	}
}
