package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1}, 1},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.xs); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Median mutated its input")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50}, {12.5, 15},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentilePanics(t *testing.T) {
	mustPanic := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { Percentile(nil, 50) })
	mustPanic(func() { Percentile([]float64{1}, -1) })
	mustPanic(func() { Percentile([]float64{1}, 101) })
	mustPanic(func() { Mean(nil) })
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestOnline(t *testing.T) {
	var o Online
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Errorf("N = %d, want 8", o.N())
	}
	if math.Abs(o.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", o.Mean())
	}
	if math.Abs(o.Variance()-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", o.Variance())
	}
	if math.Abs(o.StdDev()-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", o.StdDev())
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Variance() != 0 {
		t.Error("empty Online should report zeros")
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(100)
	same := true
	a2 := NewRNG(99)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(3)
	var buckets [10]int
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, b := range buckets {
		if math.Abs(float64(b)-n/10) > n/100 {
			t.Errorf("bucket %d badly skewed: %d", i, b)
		}
	}
}

func TestFrequencyCDF(t *testing.T) {
	trace := []uint64{7, 7, 7, 7, 3, 3, 5, 9} // freqs 4,2,1,1
	cdf := FrequencyCDF(trace)
	want := []float64{0.5, 0.75, 0.875, 1.0}
	if len(cdf) != len(want) {
		t.Fatalf("len = %d, want %d", len(cdf), len(want))
	}
	for i := range want {
		if math.Abs(cdf[i]-want[i]) > 1e-12 {
			t.Errorf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
}

func TestFrequencyCDFEmpty(t *testing.T) {
	if cdf := FrequencyCDF[uint64](nil); cdf != nil {
		t.Errorf("expected nil CDF for empty trace, got %v", cdf)
	}
}

func TestFrequencyCDFProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		trace := make([]uint64, len(raw))
		for i, b := range raw {
			trace[i] = uint64(b % 16)
		}
		cdf := FrequencyCDF(trace)
		if len(cdf) == 0 || math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
			return false
		}
		for i := 1; i < len(cdf); i++ {
			if cdf[i] < cdf[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoverageAt(t *testing.T) {
	cdf := []float64{0.5, 0.75, 1.0}
	if CoverageAt(cdf, 1) != 0.5 {
		t.Error("CoverageAt(1)")
	}
	if CoverageAt(cdf, 3) != 1.0 {
		t.Error("CoverageAt(3)")
	}
	if CoverageAt(cdf, 10) != 1.0 {
		t.Error("CoverageAt beyond should clamp")
	}
	if CoverageAt(cdf, 0) != 0 || CoverageAt(nil, 1) != 0 {
		t.Error("CoverageAt edge cases")
	}
}

func TestWindowUniqueFraction(t *testing.T) {
	// All identical: only 1 unique value occupying every slot -> for window
	// w, unique count is 0 (value appears w times, not once) unless w == 1.
	same := []uint64{5, 5, 5, 5, 5, 5}
	if got := WindowUniqueFraction(same, 3); got != 0 {
		t.Errorf("identical trace window 3: got %v, want 0", got)
	}
	if got := WindowUniqueFraction(same, 1); got != 1 {
		t.Errorf("window 1 must always be 1, got %v", got)
	}
	// All distinct: every value in every window is unique.
	distinct := []uint64{1, 2, 3, 4, 5, 6}
	if got := WindowUniqueFraction(distinct, 4); got != 1 {
		t.Errorf("distinct trace: got %v, want 1", got)
	}
	// Mixed: trace {1,1,2}, window 2: windows {1,1}->0/2, {1,2}->2/2; avg 0.5.
	mixed := []uint64{1, 1, 2}
	if got := WindowUniqueFraction(mixed, 2); got != 0.5 {
		t.Errorf("mixed trace: got %v, want 0.5", got)
	}
}

func TestWindowUniqueFractionEdges(t *testing.T) {
	if WindowUniqueFraction([]uint64{1, 2}, 3) != 0 {
		t.Error("window larger than trace should yield 0")
	}
	if WindowUniqueFraction([]uint64{1, 2}, 0) != 0 {
		t.Error("window 0 should yield 0")
	}
}

func TestWindowUniqueFractionSliding(t *testing.T) {
	// Brute-force check on a small random-ish trace.
	trace := []uint64{1, 2, 1, 3, 3, 2, 1, 4, 4, 4, 2, 1}
	for window := 1; window <= len(trace); window++ {
		brute := 0.0
		n := 0
		for start := 0; start+window <= len(trace); start++ {
			counts := map[uint64]int{}
			for _, v := range trace[start : start+window] {
				counts[v]++
			}
			u := 0
			for _, c := range counts {
				if c == 1 {
					u++
				}
			}
			brute += float64(u) / float64(window)
			n++
		}
		brute /= float64(n)
		if got := WindowUniqueFraction(trace, window); math.Abs(got-brute) > 1e-12 {
			t.Errorf("window %d: got %v, want %v", window, got, brute)
		}
	}
}

func TestUniqueCount(t *testing.T) {
	if got := UniqueCount([]uint64{1, 2, 2, 3, 3, 3}); got != 3 {
		t.Errorf("UniqueCount = %d, want 3", got)
	}
	if got := UniqueCount[uint64](nil); got != 0 {
		t.Errorf("UniqueCount[uint64](nil) = %d, want 0", got)
	}
}
