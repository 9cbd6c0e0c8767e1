package cpu_test

import (
	"testing"

	"buspower/internal/cpu"
	"buspower/internal/workload"
)

// BenchmarkKernels times trace production. The sub-benchmark name is
// stable across changes, so before/after comparisons keep meaning the
// same operation.
func BenchmarkKernels(b *testing.B) {
	b.Run("CPU.Simulate/li-50k", func(b *testing.B) { benchSimulate(b, 50_000, 0) })
	// The experiments' run bounds (workload.DefaultRunConfig): the loop
	// stops once both buses have produced 120k beats.
	b.Run("CPU.Simulate/li-capped", func(b *testing.B) { benchSimulate(b, 1_500_000, 120_000) })
}

func benchSimulate(b *testing.B, maxInstrs uint64, maxBusValues int) {
	w, err := workload.ByName("li")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := cpu.NewSimulator(p, cpu.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		tr := sim.Run(maxInstrs, maxBusValues)
		if tr.Instructions == 0 {
			b.Fatal("no instructions executed")
		}
	}
}
