package cpu_test

import (
	"reflect"
	"testing"

	"buspower/internal/cpu"
	"buspower/internal/workload"
)

// The optimized Simulator (index-based slot rings, direct-mapped store
// tracking, pre-decoded metadata, bus beats streamed in cycle order) must be
// cycle-identical to the map-based ReferenceSimulator it replaced: every
// experiment artifact derives from these traces, so "faster" is only
// admissible when BusTraces match byte for byte.

// goldenCases covers the behaviour space: integer pointer chasing,
// hashing/branching, FP stencils (FP register timing paths), and a
// store-heavy kernel (memory bus + writeback paths), at the 40k-beat cap.
// The 2k-beat cases fill the register bus within the first few thousand
// instructions, so it drops every later beat while the memory bus is
// still filling: perl's memory bus fills partway through and stops the
// run, go's never fills and ends short of its cap.
var goldenCases = []struct {
	name, workload string
	maxValues      int
}{
	{"li", "li", 40_000},
	{"gcc", "gcc", 40_000},
	{"compress", "compress", 40_000},
	{"swim", "swim", 40_000},
	{"tomcatv", "tomcatv", 40_000},
	{"perl-cap2000", "perl", 2_000},
	{"go-cap2000", "go", 2_000},
}

func TestGoldenTraceDifferential(t *testing.T) {
	const maxInstrs = 300_000
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			w, err := workload.ByName(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			p, err := w.Program()
			if err != nil {
				t.Fatal(err)
			}
			opt, err := cpu.NewSimulator(p, cpu.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := cpu.NewReferenceSimulator(p, cpu.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			compareBusTraces(t, opt.Run(maxInstrs, c.maxValues), ref.Run(maxInstrs, c.maxValues))
		})
	}
}

// TestGoldenTraceDifferentialUnbounded exercises the no-cap path (the
// early-exit break never fires, every event is collected and sorted).
func TestGoldenTraceDifferentialUnbounded(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := cpu.NewSimulator(p, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cpu.NewReferenceSimulator(p, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	compareBusTraces(t, opt.Run(120_000, 0), ref.Run(120_000, 0))
}

func compareBusTraces(t *testing.T, got, want cpu.BusTraces) {
	t.Helper()
	if got.Instructions != want.Instructions || got.Cycles != want.Cycles {
		t.Fatalf("timing diverged: got %d instrs / %d cycles, want %d / %d",
			got.Instructions, got.Cycles, want.Instructions, want.Cycles)
	}
	compareStream(t, "RegisterBus", got.RegisterBus, want.RegisterBus)
	compareStream(t, "MemoryBus", got.MemoryBus, want.MemoryBus)
	compareStream(t, "MemoryAddrBus", got.MemoryAddrBus, want.MemoryAddrBus)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("summary statistics diverged:\n got %+v\nwant %+v", got, want)
	}
}

func compareStream(t *testing.T, name string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s diverges at beat %d: got %#x, want %#x", name, i, got[i], want[i])
		}
	}
}
