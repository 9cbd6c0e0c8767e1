package circuit

import (
	"math"
	"testing"

	"buspower/internal/coding"
	"buspower/internal/stats"
	"buspower/internal/wire"
)

func TestJohnsonOneToggleWithinStage(t *testing.T) {
	j := NewJohnsonCounter(1)
	// Within a stage (no carries), every count toggles exactly one bit.
	for i := 0; i < 7; i++ {
		if got := j.Increment(); got != 1 {
			t.Fatalf("count %d toggled %d bits, want 1", i, got)
		}
	}
}

func TestJohnsonCountsAndSaturates(t *testing.T) {
	j := NewJohnsonCounter(2) // max 63
	if j.Max() != 63 {
		t.Fatalf("2-stage max = %d, want 63", j.Max())
	}
	for i := 0; i < 100; i++ {
		j.Increment()
	}
	if j.Value() != 63 || !j.Saturated() {
		t.Errorf("counter should saturate at 63, got %d", j.Value())
	}
	if j.Increment() != 0 {
		t.Error("saturated counter must not toggle bits")
	}
}

func TestJohnsonFourStagesMatchPaper(t *testing.T) {
	j := NewJohnsonCounter(4)
	if j.Max() != 4095 {
		t.Errorf("four 4-bit Johnson stages saturate at 4096 counts (max value 4095), got %d", j.Max())
	}
}

func TestJohnsonCarryCost(t *testing.T) {
	j := NewJohnsonCounter(2)
	for i := 0; i < 7; i++ {
		j.Increment()
	}
	// 8th increment carries into stage 2: exactly two toggles.
	if got := j.Increment(); got != 2 {
		t.Errorf("carry increment toggled %d bits, want 2", got)
	}
}

func TestJohnsonAverageTogglesNearOne(t *testing.T) {
	j := NewJohnsonCounter(4)
	const n = 4000
	for i := 0; i < n; i++ {
		j.Increment()
	}
	avg := float64(j.BitTransitions) / n
	// 1 + 1/8 + 1/64 + 1/512 ≈ 1.127 — far below a binary counter's ~2.
	if avg < 1.0 || avg > 1.2 {
		t.Errorf("average toggles per count = %v, want ≈1.13", avg)
	}
}

func TestJohnsonHalve(t *testing.T) {
	j := NewJohnsonCounter(4)
	for i := 0; i < 100; i++ {
		j.Increment()
	}
	j.Halve()
	if j.Value() != 50 {
		t.Errorf("Halve: value = %d, want 50", j.Value())
	}
	// Counting must continue correctly after a halve.
	j.Increment()
	if j.Value() != 51 {
		t.Errorf("post-halve increment: %d, want 51", j.Value())
	}
}

func TestJohnsonReset(t *testing.T) {
	j := NewJohnsonCounter(2)
	j.Increment()
	j.Reset()
	if j.Value() != 0 {
		t.Error("Reset failed")
	}
	if got := j.Increment(); got != 1 {
		t.Errorf("post-reset increment toggled %d", got)
	}
}

func TestJohnsonPatternConsistency(t *testing.T) {
	// The ring register reached by incrementing must equal the pattern
	// table used by Halve for every phase.
	j := NewJohnsonCounter(1)
	for phase := 1; phase <= 7; phase++ {
		j.Increment()
		if j.stages[0].bits != johnsonPattern(phase) {
			t.Errorf("phase %d: bits %04b, pattern %04b", phase, j.stages[0].bits, johnsonPattern(phase))
		}
	}
}

func TestCAMMatch(t *testing.T) {
	cam := NewCAM(8, 32, 8)
	cam.Write(3, 0xDEADBEEF)
	cam.Write(5, 0x12345678)
	if got := cam.Match(0xDEADBEEF); got != 3 {
		t.Errorf("Match = %d, want 3", got)
	}
	if got := cam.Match(0x11111111); got != -1 {
		t.Errorf("Match of absent tag = %d, want -1", got)
	}
}

func TestCAMSelectivePrechargeSavesCharges(t *testing.T) {
	cam := NewCAM(8, 32, 8)
	rng := stats.NewRNG(4)
	for i := 0; i < 8; i++ {
		cam.Write(i, rng.Uint64()&0xFFFFFFFF)
	}
	for i := 0; i < 1000; i++ {
		cam.Match(rng.Uint64() & 0xFFFFFFFF)
	}
	selective := cam.Charges()
	naive := cam.NaiveMatchCharges()
	if selective >= naive {
		t.Fatalf("selective precharge (%d) must beat naive probing (%d)", selective, naive)
	}
	// With random low bytes, only ~1/256 of entries pass the partial
	// phase: expect roughly a 4x saving (8 of 32 bits always charged).
	ratio := float64(selective) / float64(naive)
	if ratio > 0.35 {
		t.Errorf("selective precharge saving too small: ratio %.3f", ratio)
	}
}

func TestCAMDuplicateTagsReturnFirst(t *testing.T) {
	cam := NewCAM(4, 16, 8)
	cam.Write(1, 0xABCD)
	cam.Write(2, 0xABCD)
	if got := cam.Match(0xABCD); got != 1 {
		t.Errorf("Match = %d, want first matching entry 1", got)
	}
}

func TestCAMGeometryValidation(t *testing.T) {
	for _, bad := range [][3]int{{0, 32, 8}, {8, 0, 8}, {8, 32, 0}, {8, 8, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCAM%v should panic", bad)
				}
			}()
			NewCAM(bad[0], bad[1], bad[2])
		}()
	}
}

func TestOpEnergiesForTechnologies(t *testing.T) {
	e130, err := OpEnergiesFor(wire.Tech130)
	if err != nil {
		t.Fatal(err)
	}
	e100, err := OpEnergiesFor(wire.Tech100)
	if err != nil {
		t.Fatal(err)
	}
	e070, err := OpEnergiesFor(wire.Tech070)
	if err != nil {
		t.Fatal(err)
	}
	if !(e130.PerCycle > e100.PerCycle && e100.PerCycle > e070.PerCycle) {
		t.Error("op energies must shrink with technology")
	}
	if _, err := OpEnergiesFor(wire.Technology{Name: "bogus", FeatureNM: 45}); err == nil {
		t.Error("unknown technology must be rejected")
	}
}

// The calibration check: an 8-entry window encoder running SPEC-like
// register traffic must average close to Table 2's 1.39 pJ/cycle.
func TestWindowEncoderEnergyMatchesTable2(t *testing.T) {
	rng := stats.NewRNG(6)
	hot := make([]uint64, 10)
	for i := range hot {
		hot[i] = rng.Uint64() & 0xFFFFFFFF
	}
	trace := make([]uint64, 30000)
	last := uint64(0)
	for i := range trace {
		switch r := rng.Intn(10); {
		case r < 3:
			trace[i] = last // repeats
		case r < 8:
			trace[i] = hot[rng.Intn(len(hot))]
		default:
			trace[i] = rng.Uint64() & 0xFFFFFFFF
		}
		last = trace[i]
	}
	win, err := coding.NewWindow(32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := coding.MustEvaluate(win, trace, 1)
	e, _ := OpEnergiesFor(wire.Tech130)
	perCycle := e.EncoderEnergyPJ(res.Ops) / float64(res.Ops.Cycles)
	if perCycle < 1.0 || perCycle > 1.8 {
		t.Errorf("8-entry window encoder energy %.3f pJ/cycle, Table 2 anchor is 1.39", perCycle)
	}
	// The decoder (no CAM probes) must be cheaper than the encoder.
	if dec := e.DecoderEnergyPJ(res.Ops); dec >= e.EncoderEnergyPJ(res.Ops) {
		t.Error("decoder estimate should be below encoder energy")
	}
	if pair := e.PairEnergyPJ(res.Ops); math.Abs(pair-e.EncoderEnergyPJ(res.Ops)-e.DecoderEnergyPJ(res.Ops)) > 1e-9 {
		t.Error("pair energy must be the sum of encoder and decoder")
	}
}

func TestCharacterizeWindowMatchesTable2(t *testing.T) {
	cases := []struct {
		tech  wire.Technology
		area  float64
		op    float64
		leak  float64
		delay float64
		cycle float64
	}{
		{wire.Tech130, 12400, 1.39, 0.00088, 3.1, 4.0},
		{wire.Tech100, 7340, 1.07, 0.00338, 2.4, 3.2},
		{wire.Tech070, 3600, 0.55, 0.00787, 2.0, 2.7},
	}
	for _, c := range cases {
		ch, err := Characterize(c.tech, WindowDesign, 8)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ch.AreaUM2-c.area) > 1e-9 || math.Abs(ch.OpEnergyPJ-c.op) > 1e-9 ||
			math.Abs(ch.LeakagePJ-c.leak) > 1e-9 || math.Abs(ch.DelayNS-c.delay) > 1e-9 ||
			math.Abs(ch.CycleTimeNS-c.cycle) > 1e-9 {
			t.Errorf("%s: Characterize = %+v, want Table 2 row %+v", c.tech.Name, ch, c)
		}
		if ch.VoltageV != c.tech.Vdd {
			t.Errorf("%s: voltage %v", c.tech.Name, ch.VoltageV)
		}
	}
}

func TestCharacterizeInversionMatchesTable2(t *testing.T) {
	ch, err := Characterize(wire.Tech130, InversionDesign, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ch.AreaUM2 != 4700 || ch.OpEnergyPJ != 1.76 || ch.LeakagePJ != 0.00055 ||
		ch.DelayNS != 2.2 || ch.CycleTimeNS != 2.2 {
		t.Errorf("inversion characteristics = %+v", ch)
	}
	if _, err := Characterize(wire.Tech070, InversionDesign, 0); err == nil {
		t.Error("inversion coder characterization exists only at 0.13um")
	}
	if InversionCoderEnergyPJ() != 1.76 {
		t.Error("InversionCoderEnergyPJ anchor drifted")
	}
}

func TestCharacterizeScaling(t *testing.T) {
	w8, _ := Characterize(wire.Tech130, WindowDesign, 8)
	w16, _ := Characterize(wire.Tech130, WindowDesign, 16)
	if w16.AreaUM2 <= w8.AreaUM2 || w16.OpEnergyPJ <= w8.OpEnergyPJ {
		t.Error("16-entry design must cost more than 8-entry")
	}
	if w16.AreaUM2 >= 2*w8.AreaUM2 {
		t.Error("fixed overhead should make 16 entries less than twice the area")
	}
	ctx, _ := Characterize(wire.Tech130, ContextDesign, 8)
	if ctx.AreaUM2 <= w8.AreaUM2 {
		t.Error("context design must exceed window design area (§5.3.4)")
	}
	if _, err := Characterize(wire.Tech130, WindowDesign, 0); err == nil {
		t.Error("zero entries must be rejected")
	}
	if _, err := Characterize(wire.Technology{Name: "x", FeatureNM: 1}, WindowDesign, 8); err == nil {
		t.Error("unknown tech must be rejected")
	}
}

func TestLeakageOrdersOfMagnitudeBelowDynamic(t *testing.T) {
	// §5.4.3: leakage is orders of magnitude below dynamic energy even as
	// it grows with shrinking technology.
	for _, tech := range wire.Technologies() {
		ch, err := Characterize(tech, WindowDesign, 8)
		if err != nil {
			t.Fatal(err)
		}
		if ch.LeakagePJ*50 > ch.OpEnergyPJ {
			t.Errorf("%s: leakage %.5f too close to dynamic %.2f", tech.Name, ch.LeakagePJ, ch.OpEnergyPJ)
		}
	}
	// And it grows as technology shrinks.
	l130, _ := Characterize(wire.Tech130, WindowDesign, 8)
	l070, _ := Characterize(wire.Tech070, WindowDesign, 8)
	if l070.LeakagePJ <= l130.LeakagePJ {
		t.Error("leakage must grow with shrinking technology")
	}
}
