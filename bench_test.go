package buspower

// These benchmarks regenerate every table and figure of the paper (one
// Benchmark per artifact, each printing nothing but timing the full
// regeneration at the quick scale) and time a few encoders. The
// pipeline's hot-path kernels are BenchmarkKernels in the packages they
// measure (internal/bus, internal/coding, internal/cpu, internal/trace).
// The design choices of DESIGN.md §5 are stated as tests, not measured
// here.
//
// Run everything:   go test -bench=. -benchmem ./...
// One artifact:     go test -bench=BenchmarkFig19
// Full-scale data:  go run ./cmd/buspower -exp all -o results/

import (
	"context"
	"testing"

	"buspower/internal/coding"
	"buspower/internal/experiments"
	"buspower/internal/stats"
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
