package coding

import (
	"fmt"
	"testing"

	"buspower/internal/stats"
)

// BenchmarkKernels times the encode and evaluation hot paths. Sub-benchmark
// names are stable across changes, so before/after comparisons (for
// example with benchstat) keep meaning the same operation as
// implementations change underneath.
func BenchmarkKernels(b *testing.B) {
	for _, n := range []int{8, 32, 128, 1024} {
		b.Run(fmt.Sprintf("Window.Encode/%d", n), func(b *testing.B) {
			benchEncode(b, dictTrace(8192, n*3/4), func() (Transcoder, error) { return NewWindow(32, n, 1) })
		})
	}
	for _, c := range []struct {
		name              string
		table, sr, divide int
	}{
		{"16", 16, 8, 4096},
		{"128", 128, 8, 4096},
		{"t128-s16", 128, 16, 256},
		{"t1024-s16", 1024, 16, 4096},
	} {
		b.Run("Context.Encode/"+c.name, func(b *testing.B) {
			benchEncode(b, dictTrace(8192, c.table*3/4), func() (Transcoder, error) {
				return NewContext(ContextConfig{
					Width: 32, TableSize: c.table, ShiftEntries: c.sr,
					DividePeriod: c.divide, Lambda: 1,
				})
			})
		})
	}
	// A one-entry window fed uniformly random values misses on every
	// cycle, so each Encode is a one-slot probe plus the channel's fused
	// raw-vs-inverted ranking — compared in float64 at a fractional
	// assumed Λ and in uint64 at an integral one.
	for _, c := range []struct {
		name   string
		lambda float64
	}{{"l0.5", 0.5}, {"l1", 1}} {
		b.Run("Channel.SendRaw/"+c.name, func(b *testing.B) {
			benchEncode(b, randomTrace(8192), func() (Transcoder, error) { return NewWindow(32, 1, c.lambda) })
		})
	}
	// The enumerative rank/unrank datapath of the optimal-codebook coders:
	// a per-cycle O(wires) chain of binomial lookups, the opposite cost
	// shape from the dictionary coders' probes.
	for _, c := range []struct {
		name  string
		build func() (Transcoder, error)
	}{
		{"optmem-32+2", func() (Transcoder, error) { return NewOptMem(32, 2) }},
		{"vc-32+2", func() (Transcoder, error) { return NewVC(32, 2) }},
		{"lowweight-32g4+1", func() (Transcoder, error) { return NewLowWeight(32, 4, 1) }},
	} {
		b.Run("Enum.Encode/"+c.name, func(b *testing.B) { benchEncode(b, dictTrace(8192, 48), c.build) })
	}
	b.Run("Coding.EvaluateSweep/window", benchEvaluateSweep)
	b.Run("Evaluate/window-8", func(b *testing.B) {
		benchEvaluate(b, 8, func() (Transcoder, error) { return NewWindow(32, 8, 1) })
	})
	b.Run("Evaluate/context-64", func(b *testing.B) {
		benchEvaluate(b, 48, func() (Transcoder, error) {
			return NewContext(ContextConfig{
				Width: 32, TableSize: 64, ShiftEntries: 8,
				DividePeriod: 4096, Lambda: 1,
			})
		})
	})
	b.Run("Grid.Stateless/raw-inv-gray", benchGridStateless)
	b.Run("Grid.Stride/k1-8", benchGridStride)
	b.Run("Stride.Request/32", benchStrideRequest)
	b.Run("Grid.Optimal/4-family", benchGridOptimal)
	b.Run("Grid.Window/8-128", benchGridWindow)
}

// randomTrace is uniformly random 32-bit traffic.
func randomTrace(n int) []uint64 {
	rng := stats.NewRNG(1)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64() & 0xFFFFFFFF
	}
	return out
}

// dictTrace is dictionary-friendly traffic: a hot working set of
// hotValues values with occasional cold values, so encode exercises both
// the hit (probe) and miss (insert) paths.
func dictTrace(n, hotValues int) []uint64 {
	rng := stats.NewRNG(424242)
	hot := make([]uint64, hotValues)
	for i := range hot {
		hot[i] = rng.Uint64() & 0xFFFFFFFF
	}
	out := make([]uint64, n)
	for i := range out {
		if rng.Intn(12) == 0 {
			out[i] = rng.Uint64() & 0xFFFFFFFF
		} else {
			out[i] = hot[rng.Intn(len(hot))]
		}
	}
	return out
}

// benchEncode times one encoder's Encode over trace (8192 values). The
// encoder first runs the whole trace once, so a dictionary coder's
// steady state dominates.
func benchEncode(b *testing.B, trace []uint64, build func() (Transcoder, error)) {
	tc, err := build()
	if err != nil {
		b.Fatal(err)
	}
	enc := tc.NewEncoder()
	for _, v := range trace {
		enc.Encode(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(trace[i&8191])
	}
}

// benchEvaluate measures one whole Evaluator.Evaluate call — encode,
// meter and decoder self-check — the way the experiment runners invoke it
// (sampled verification, shared raw meter, reused evaluator scratch).
// hot sizes the trace's working set to the scheme's capture range, so the
// transcoder runs at its operating point — hit-dominated with a
// realistic miss tail — rather than as a pure raw-send benchmark.
func benchEvaluate(b *testing.B, hot int, build func() (Transcoder, error)) {
	trace := dictTrace(8192, hot)
	tc, err := build()
	if err != nil {
		b.Fatal(err)
	}
	raw := MeasureRawValues(32, trace)
	var ev Evaluator
	ev.Verify = VerifySampled(0)
	ev.Use(tc)
	if _, err := ev.Evaluate(trace, 1, raw); err != nil { // warm scratch
		b.Fatal(err)
	}
	b.SetBytes(int64(len(trace)) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(trace, 1, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEvaluateSweep is the experiments' inner loop in miniature: several
// window sizes evaluated over one shared trace with one shared raw-bus
// measurement and a reused Evaluator, the way the figure sweeps multiply
// schemes × parameters over each workload.
func benchEvaluateSweep(b *testing.B) {
	trace := dictTrace(8192, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := MeasureRawValues(32, trace)
		var ev Evaluator
		for _, n := range []int{4, 8, 16, 32} {
			win, err := NewWindow(32, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			ev.Use(win)
			if _, err := ev.Evaluate(trace, 1, raw); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchGrid times one EvaluateGrid pass of cells over an 8k-value
// dictionary-friendly trace with hotValues hot values.
func benchGrid(b *testing.B, hotValues int, cells []GridCell, opts GridOptions) {
	vals := dictTrace(8192, hotValues)
	raw := MeasureRawValues(32, vals)
	b.SetBytes(int64(len(vals)) * 8 * int64(len(cells)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateGrid(cells, vals, raw, VerifySampled(0), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGridStateless fans the stateless coders (raw at two Λ, inversion,
// gray) out of one grid pass: three scalar encodes, raw's shared by both Λ.
func benchGridStateless(b *testing.B) {
	inv, err := NewBusInvert(32, 1)
	if err != nil {
		b.Fatal(err)
	}
	gray, err := NewGray(32)
	if err != nil {
		b.Fatal(err)
	}
	benchGrid(b, 48, []GridCell{
		{T: NewRaw(32), Lambda: 1},
		{T: NewRaw(32), Lambda: 2},
		{T: inv, Lambda: 1},
		{T: gray, Lambda: 1},
	}, GridOptions{})
}

// benchGridStride evaluates a whole stride bank-depth sweep (k = 1..8)
// in one grid pass with no tape provider: the shared prefix-nesting tape
// is built once per pass and replayed per depth.
func benchGridStride(b *testing.B) {
	var cells []GridCell
	for k := 1; k <= 8; k++ {
		st, err := NewStride(32, k, 1)
		if err != nil {
			b.Fatal(err)
		}
		cells = append(cells, GridCell{T: st, Lambda: 1})
	}
	benchGrid(b, 24, cells, GridOptions{})
}

// benchStrideRequest is a single stride request's evaluation the way the
// request path runs it: a one-cell grid whose tape provider hands back
// the trace's already-built tape (a warm tape memo), so the benchmark is
// the 32-bank replay plus sampled verification.
func benchStrideRequest(b *testing.B) {
	st, err := NewStride(32, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	tape := NewStrideTape(32, 32, dictTrace(8192, 24))
	benchGrid(b, 24, []GridCell{{T: st, Lambda: 1}},
		GridOptions{Tapes: func(int, int) *StrideTape { return tape }})
}

// benchGridOptimal fans the four optimal-codebook coders out of one grid
// pass the way the extopt experiment runs them: scalar encodes through
// each encoder's unrank cache.
func benchGridOptimal(b *testing.B) {
	var cells []GridCell
	for _, spec := range []string{
		"optmem:extra=2", "vc:extra=2", "lowweight:groups=4,extra=1", "dvs:extra=2,vdd=80",
	} {
		tc, err := BuildScheme(spec)
		if err != nil {
			b.Fatal(err)
		}
		cells = append(cells, GridCell{T: tc, Lambda: 1})
	}
	benchGrid(b, 48, cells, GridOptions{})
}

// benchGridWindow evaluates a window register-size sweep (Figures
// 18/19's shape) as one grid: each size is a scalar Evaluator pass over
// the trace with its own ring and partial-match rows.
func benchGridWindow(b *testing.B) {
	var cells []GridCell
	for _, n := range []int{8, 16, 32, 64, 128} {
		w, err := NewWindow(32, n, 1)
		if err != nil {
			b.Fatal(err)
		}
		cells = append(cells, GridCell{T: w, Lambda: 1})
	}
	benchGrid(b, 48, cells, GridOptions{})
}
