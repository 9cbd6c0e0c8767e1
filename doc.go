// Package buspower is a from-scratch Go reproduction of Victor Wen's
// "Exploiting Prediction to Reduce Power on Buses" (UC Berkeley report
// UCB/CSD-3-1294; HPCA 2004 line of work): bus transcoding — synchronized
// encoder/decoder FSMs that re-code on-chip bus traffic to cut wire
// transitions and cross-coupling — evaluated end to end, from coding
// schemes through an out-of-order CPU substrate generating realistic bus
// traffic, down to circuit-level energy accounting and break-even wire
// lengths.
//
// The implementation lives under internal/:
//
//	bus         transition/coupling accounting (eq. 1-3)
//	stats       order statistics, CDFs, deterministic PRNG
//	wire        technology + repeater wire model (Table 1, Figs 5-6)
//	coding      the transcoding schemes (§4.3) and evaluation harness
//	circuit     Johnson counters, selective-precharge CAM, op energies (§5)
//	cpu         the SimpleScalar-substitute out-of-order simulator (§4.1)
//	workload    seventeen SPEC95-analog benchmark programs
//	trace       trace serialization and §4.2 statistics
//	energy      budgets and crossover lengths (§5.4)
//	experiments one runner per table/figure of the paper
//
// Executables: cmd/buspower (reproduce any table/figure), cmd/tracegen
// (extract bus traces), cmd/transcode (apply a scheme to a trace). Worked
// examples live under examples/. bench_test.go regenerates every
// artifact under `go test -bench`; each pipeline package carries its
// hot-path kernels as BenchmarkKernels, and perfbench/ (a module of its
// own) times whole workloads end to end.
package buspower
