package buspower

// These benchmarks regenerate every table and figure of the paper (one
// Benchmark per artifact, each printing nothing but timing the full
// regeneration at the quick scale), measure the ablations called out in
// DESIGN.md §5 as custom metrics, and time a few encoders. The pipeline's
// hot-path kernels are BenchmarkKernels in the packages they measure
// (internal/bus, internal/coding, internal/cpu, internal/trace).
//
// Run everything:   go test -bench=. -benchmem ./...
// One artifact:     go test -bench=BenchmarkFig19
// Full-scale data:  go run ./cmd/buspower -exp all -o results/

import (
	"context"
	"testing"

	"buspower/internal/bus"
	"buspower/internal/circuit"
	"buspower/internal/coding"
	"buspower/internal/experiments"
	"buspower/internal/stats"
	"buspower/internal/wire"
	"buspower/internal/workload"
)

// benchExperiment times regenerating one artifact at the quick scale
// (workload traces are cached after the warm-up run, so the measurement
// covers the sweep itself, like repeated reruns would in practice).
func benchExperiment(b *testing.B, id string) {
	cfg := experiments.QuickConfig()
	if _, err := experiments.Run(id, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B)  { benchExperiment(b, "fig22") }
func BenchmarkFig23(b *testing.B)  { benchExperiment(b, "fig23") }
func BenchmarkFig24(b *testing.B)  { benchExperiment(b, "fig24") }
func BenchmarkFig25(b *testing.B)  { benchExperiment(b, "fig25") }
func BenchmarkFig26(b *testing.B)  { benchExperiment(b, "fig26") }
func BenchmarkFig35(b *testing.B)  { benchExperiment(b, "fig35") }
func BenchmarkFig36(b *testing.B)  { benchExperiment(b, "fig36") }
func BenchmarkFig37(b *testing.B)  { benchExperiment(b, "fig37") }
func BenchmarkFig38(b *testing.B)  { benchExperiment(b, "fig38") }

// --- The concurrent experiment engine ---

// benchRunAll times regenerating a set of artifacts through the parallel
// engine at the given pool width; compare widths (and the serial
// Benchmark* entries above) to see the engine's speedup on this machine.
func benchRunAll(b *testing.B, jobs int) {
	cfg := experiments.QuickConfig()
	ids := []string{"fig7", "fig8", "fig16", "fig18", "extvlc"}
	if _, err := experiments.RunAll(context.Background(), cfg, ids, experiments.Options{Jobs: jobs}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(context.Background(), cfg, ids, experiments.Options{Jobs: jobs}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllJobs1(b *testing.B) { benchRunAll(b, 1) }
func BenchmarkRunAllJobs4(b *testing.B) { benchRunAll(b, 4) }
func BenchmarkRunAllMax(b *testing.B)   { benchRunAll(b, 0) }

// The single-flight trace cache under contention: all goroutines ask for
// an already-simulated key; the measurement is pure cache-hit overhead.
func BenchmarkTracesCacheHit(b *testing.B) {
	cfg := workload.RunConfig{MaxInstructions: 50_000, MaxBusValues: 5_000}
	if _, err := workload.Traces("li", cfg); err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := workload.Traces("li", cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations (DESIGN.md §5) ---
// Each reports the design choice's effect as a custom metric alongside the
// runtime cost of evaluating it.

// hotTrace is shared ablation traffic: a hot value set with noise.
func hotTrace(n int) []uint64 {
	rng := stats.NewRNG(424242)
	hot := make([]uint64, 8)
	for i := range hot {
		hot[i] = rng.Uint64() & 0xFFFFFFFF
	}
	out := make([]uint64, n)
	for i := range out {
		if rng.Intn(6) == 0 {
			out[i] = rng.Uint64() & 0xFFFFFFFF
		} else {
			out[i] = hot[rng.Intn(len(hot))]
		}
	}
	return out
}

// Selective precharge vs naive full-width CAM probing: comparator
// bit-charges saved.
func BenchmarkAblationSelectivePrecharge(b *testing.B) {
	rng := stats.NewRNG(7)
	tags := make([]uint64, 2048)
	for i := range tags {
		tags[i] = rng.Uint64() & 0xFFFFFFFF
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		cam := circuit.NewCAM(8, 32, 8)
		for j := 0; j < 8; j++ {
			cam.Write(j, tags[j])
		}
		for _, t := range tags {
			cam.Match(t)
		}
		ratio = float64(cam.Charges()) / float64(cam.NaiveMatchCharges())
	}
	b.ReportMetric(ratio, "charge-ratio")
}

// Coupling-aware codeword ordering (λ=1 codebook) vs weight-only (λ=0):
// coded cost difference at Λ=1.
func BenchmarkAblationCouplingAwareCodebook(b *testing.B) {
	trace := hotTrace(20000)
	var gain float64
	for i := 0; i < b.N; i++ {
		w0, err := coding.NewWindow(32, 8, 0)
		if err != nil {
			b.Fatal(err)
		}
		w1, err := coding.NewWindow(32, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		r0 := coding.MustEvaluate(w0, trace, 1)
		r1 := coding.MustEvaluate(w1, trace, 1)
		gain = r0.CodedCost()/r1.CodedCost() - 1
	}
	b.ReportMetric(100*gain, "coupling-cost-saved-%")
}

// λN-aware inversion coding vs λ0 at high actual Λ (the Figure 15 story).
func BenchmarkAblationInversionLambda(b *testing.B) {
	rng := stats.NewRNG(12)
	trace := make([]uint64, 20000)
	for i := range trace {
		trace[i] = rng.Uint64() & 0xFFFFFFFF
	}
	pats, err := coding.DefaultInversionPatterns(32, 4)
	if err != nil {
		b.Fatal(err)
	}
	const actual = 10.0
	var gain float64
	for i := 0; i < b.N; i++ {
		l0, err := coding.NewInversion(32, pats, 0)
		if err != nil {
			b.Fatal(err)
		}
		lN, err := coding.NewInversion(32, pats, actual)
		if err != nil {
			b.Fatal(err)
		}
		r0 := coding.MustEvaluate(l0, trace, actual)
		rN := coding.MustEvaluate(lN, trace, actual)
		gain = r0.CodedCost()/rN.CodedCost() - 1
	}
	b.ReportMetric(100*gain, "lambdaN-cost-saved-%")
}

// Counter division on vs off across a phase change in the traffic.
func BenchmarkAblationCounterDivision(b *testing.B) {
	rng := stats.NewRNG(33)
	// Phase 1 hot set, then phase 2 hot set: without division the stale
	// phase-1 counters pin the table.
	trace := make([]uint64, 40000)
	phase1 := make([]uint64, 8)
	phase2 := make([]uint64, 8)
	for i := range phase1 {
		phase1[i] = rng.Uint64() & 0xFFFFFFFF
		phase2[i] = rng.Uint64() & 0xFFFFFFFF
	}
	for i := range trace {
		set := phase1
		if i >= len(trace)/2 {
			set = phase2
		}
		trace[i] = set[rng.Intn(len(set))]
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		mk := func(period int) coding.Result {
			ctx, err := coding.NewContext(coding.ContextConfig{
				Width: 32, TableSize: 8, ShiftEntries: 4,
				DividePeriod: period, Lambda: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			return coding.MustEvaluate(ctx, trace, 1)
		}
		off := mk(0)
		on := mk(1024)
		gain = off.CodedCost()/on.CodedCost() - 1
	}
	b.ReportMetric(100*gain, "division-cost-saved-%")
}

// Window vs context design at equal total entries: savings per pJ.
func BenchmarkAblationWindowVsContext(b *testing.B) {
	trace := hotTrace(20000)
	opE, err := circuit.OpEnergiesFor(wire.Tech130)
	if err != nil {
		b.Fatal(err)
	}
	var winPerPJ, ctxPerPJ float64
	for i := 0; i < b.N; i++ {
		win, err := coding.NewWindow(32, 12, 1)
		if err != nil {
			b.Fatal(err)
		}
		ctx, err := coding.NewContext(coding.ContextConfig{
			Width: 32, TableSize: 8, ShiftEntries: 4, DividePeriod: 4096, Lambda: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		rw := coding.MustEvaluate(win, trace, 1)
		rc := coding.MustEvaluate(ctx, trace, 1)
		winPerPJ = rw.EnergyRemoved() / (opE.PairEnergyPJ(rw.Ops) / float64(rw.Ops.Cycles))
		ctxPerPJ = rc.EnergyRemoved() / (opE.PairEnergyPJ(rc.Ops) / float64(rc.Ops.Cycles))
	}
	b.ReportMetric(winPerPJ, "window-removed-per-pJ")
	b.ReportMetric(ctxPerPJ, "context-removed-per-pJ")
}

// Pointer-based vs naive shift register: storage bit toggles per insert.
func BenchmarkAblationShiftRegister(b *testing.B) {
	rng := stats.NewRNG(21)
	vals := make([]uint64, 4096)
	for i := range vals {
		vals[i] = rng.Uint64() & 0xFFFFFFFF
	}
	var ptrPer, naivePer float64
	for i := 0; i < b.N; i++ {
		naive := circuit.NewNaiveShiftRegister(8)
		ptr := circuit.NewPointerShiftRegister(8)
		for _, v := range vals {
			naive.Insert(v)
			ptr.Insert(v)
		}
		naivePer = float64(naive.BitTransitions()) / float64(len(vals))
		ptrPer = float64(ptr.BitTransitions()) / float64(len(vals))
	}
	b.ReportMetric(ptrPer, "pointer-toggles-per-insert")
	b.ReportMetric(naivePer, "naive-toggles-per-insert")
}

// Johnson vs binary counting: register bit toggles per count.
func BenchmarkAblationJohnsonCounter(b *testing.B) {
	var johnson, binary float64
	for i := 0; i < b.N; i++ {
		j := circuit.NewJohnsonCounter(4)
		const n = 4000
		for k := 0; k < n; k++ {
			j.Increment()
		}
		johnson = float64(j.BitTransitions) / n
		// Binary counter toggles = popcount(k XOR k+1) summed.
		total := 0
		for k := 0; k < n; k++ {
			total += bus.Weight(bus.Word(k) ^ bus.Word(k+1))
		}
		binary = float64(total) / n
	}
	b.ReportMetric(johnson, "johnson-toggles-per-count")
	b.ReportMetric(binary, "binary-toggles-per-count")
}

// --- Micro-benchmarks of the hot paths ---

func BenchmarkStrideEncode(b *testing.B) {
	str, err := coding.NewStride(32, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	enc := str.NewEncoder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(uint64(i) * 12)
	}
}

func BenchmarkInversionEncode(b *testing.B) {
	pats, err := coding.DefaultInversionPatterns(32, 4)
	if err != nil {
		b.Fatal(err)
	}
	inv, err := coding.NewInversion(32, pats, 1)
	if err != nil {
		b.Fatal(err)
	}
	enc := inv.NewEncoder()
	rng := stats.NewRNG(3)
	vals := make([]uint64, 4096)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(vals[i&4095])
	}
}

func BenchmarkCAMMatch(b *testing.B) {
	cam := circuit.NewCAM(32, 32, 8)
	rng := stats.NewRNG(5)
	for i := 0; i < 32; i++ {
		cam.Write(i, rng.Uint64())
	}
	probes := make([]uint64, 4096)
	for i := range probes {
		probes[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cam.Match(probes[i&4095])
	}
}
