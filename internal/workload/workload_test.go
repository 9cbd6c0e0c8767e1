package workload

import (
	"testing"

	"buspower/internal/cpu"
	"buspower/internal/stats"
)

func TestRegistryComplete(t *testing.T) {
	wantInt := []string{"compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl"}
	wantFP := []string{"applu", "apsi", "fpppp", "hydro2d", "mgrid", "su2cor", "swim", "tomcatv", "turb3d", "wave5"}
	for _, name := range wantInt {
		w, err := ByName(name)
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if w.Suite != SPECint {
			t.Errorf("%s should be SPECint", name)
		}
	}
	for _, name := range wantFP {
		w, err := ByName(name)
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if w.Suite != SPECfp {
			t.Errorf("%s should be SPECfp", name)
		}
	}
	if got := len(All()); got != len(wantInt)+len(wantFP) {
		t.Errorf("registry holds %d workloads, want %d", got, len(wantInt)+len(wantFP))
	}
	if _, err := ByName("vortex"); err == nil {
		t.Error("unknown workload lookup must fail")
	}
}

func TestAllProgramsAssemble(t *testing.T) {
	for _, w := range All() {
		if _, err := w.Program(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.Description == "" {
			t.Errorf("%s: missing description", w.Name)
		}
	}
}

// Every workload must execute without faulting, make progress, and produce
// traffic on both buses.
func TestAllWorkloadsExecute(t *testing.T) {
	cfg := RunConfig{MaxInstructions: 120_000, MaxBusValues: 30_000}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ts, err := Run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ts.Summary.Instructions < 100_000 {
				t.Errorf("only %d instructions executed; kernel too short for tracing", ts.Summary.Instructions)
			}
			if len(ts.Reg) < 10_000 {
				t.Errorf("register trace too short: %d", len(ts.Reg))
			}
			if len(ts.Mem) < 100 {
				t.Errorf("memory trace too short: %d", len(ts.Mem))
			}
			if ts.Summary.IPC <= 0.05 || ts.Summary.IPC > 4 {
				t.Errorf("implausible IPC %v", ts.Summary.IPC)
			}
		})
	}
}

// The paper's Figure 8 premise: real bus traffic has windowed value
// locality that random traffic lacks.
func TestWorkloadsShowValueLocality(t *testing.T) {
	cfg := RunConfig{MaxInstructions: 200_000, MaxBusValues: 40_000}
	random := RandomTrace(40_000, 1)
	randomUnique := stats.WindowUniqueFraction(random, 16)
	if randomUnique < 0.99 {
		t.Fatalf("random trace window-uniqueness %v, want ~1", randomUnique)
	}
	locality := 0
	for _, name := range []string{"gcc", "li", "swim", "compress"} {
		ts, err := Traces(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if u := stats.WindowUniqueFraction(ts.Reg, 16); u < 0.8*randomUnique {
			locality++
		} else {
			t.Logf("%s: window-unique fraction %v", name, u)
		}
	}
	if locality < 3 {
		t.Errorf("only %d/4 workloads show register-bus value locality", locality)
	}
}

func TestTraceCaching(t *testing.T) {
	ClearTraceCache()
	cfg := RunConfig{MaxInstructions: 50_000, MaxBusValues: 5_000}
	a, err := Traces("li", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Traces("li", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if &a.Reg[0] != &b.Reg[0] {
		t.Error("second lookup should hit the cache (same backing array)")
	}
	ClearTraceCache()
}

// TestTraceSetExactSize: a simulated TraceSet under a bus-value cap keeps
// no spare capacity on any bus. Traces stay resident in the trace cache
// for the life of the process, so a buffer sized for every buffered
// event (fpppp's register bus buffers more than three times the cap)
// would pin memory that no reader can reach.
func TestTraceSetExactSize(t *testing.T) {
	w, err := ByName("fpppp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunConfig()
	ts, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		name string
		vals []uint64
	}{{"reg", ts.Reg}, {"mem", ts.Mem}, {"addr", ts.Addr}} {
		if len(b.vals) > cfg.MaxBusValues {
			t.Errorf("%s: %d values exceed the cap %d", b.name, len(b.vals), cfg.MaxBusValues)
		}
		if cap(b.vals) != len(b.vals) {
			t.Errorf("%s: len %d cap %d, want cap == len", b.name, len(b.vals), cap(b.vals))
		}
	}
}

func TestRandomTraceDeterministic(t *testing.T) {
	a := RandomTrace(100, 7)
	b := RandomTrace(100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random trace not reproducible")
		}
	}
	c := RandomTrace(100, 8)
	same := 0
	for i := range c {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 10 {
		t.Error("different seeds produced near-identical traces")
	}
	for _, v := range a {
		if v > 0xFFFFFFFF {
			t.Fatal("random trace values must be 32-bit")
		}
	}
}

func TestSuitePartition(t *testing.T) {
	ints := BySuite(SPECint)
	fps := BySuite(SPECfp)
	if len(ints) != 7 || len(fps) != 10 {
		t.Errorf("suite sizes: %d int, %d fp", len(ints), len(fps))
	}
	if Names()[0] != "compress" {
		t.Errorf("Names() ordering unexpected: %v", Names()[:3])
	}
}

// Determinism across runs: the same workload and config must produce
// byte-identical traces (everything is seeded).
func TestWorkloadDeterminism(t *testing.T) {
	cfg := RunConfig{MaxInstructions: 60_000, MaxBusValues: 10_000}
	w, _ := ByName("m88ksim")
	a, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Reg) != len(b.Reg) {
		t.Fatal("trace lengths differ across runs")
	}
	for i := range a.Reg {
		if a.Reg[i] != b.Reg[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

// FP workloads must put FP bit patterns on the memory bus and integer
// address arithmetic on the register bus.
func TestFPWorkloadBusCharacter(t *testing.T) {
	cfg := RunConfig{MaxInstructions: 200_000, MaxBusValues: 20_000}
	ts, err := Traces("swim", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Register bus: dominated by addresses/counters, so most values are
	// small-ish integers or DataBase-relative addresses; at least some
	// strided run should exist. Check: many values share high bytes.
	high := map[uint64]int{}
	for _, v := range ts.Reg {
		high[v>>16]++
	}
	max := 0
	for _, c := range high {
		if c > max {
			max = c
		}
	}
	if float64(max) < 0.2*float64(len(ts.Reg)) {
		t.Error("expected clustered high bytes on FP workload's register bus")
	}
	// Memory bus: float bit patterns have biased exponent bytes.
	expBias := 0
	for _, v := range ts.Mem {
		b := (v >> 23) & 0xFF
		if b >= 0x70 && b <= 0x87 {
			expBias++
		}
	}
	if float64(expBias) < 0.3*float64(len(ts.Mem)) {
		t.Errorf("memory bus does not look like float32 traffic (%d/%d biased exponents)", expBias, len(ts.Mem))
	}
}

func TestWorkloadProgramsHalt(t *testing.T) {
	// With an unbounded instruction budget every workload must halt on its
	// own (outer iteration counters are finite). Run the two shortest.
	for _, name := range []string{"perl", "li"} {
		w, _ := ByName(name)
		p, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		c, err := cpu.NewCore(p)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(100_000_000)
		if !c.Halted() {
			t.Errorf("%s did not halt within 100M instructions", name)
		}
	}
}
