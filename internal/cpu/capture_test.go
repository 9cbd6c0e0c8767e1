package cpu

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestBusCaptureMatchesStableSort drives the capture the way Run does —
// a watermark that only rises, beats that never fall below it — and
// requires its output to equal the stable sort of every beat by cycle,
// truncated to the cap. Beats are nearly sorted with many ties, so the
// insertion from the back, the tie order and the prefix reclaim all run.
func TestBusCaptureMatchesStableSort(t *testing.T) {
	for _, max := range []int{0, 1, 37, 500, 5000} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := newBusCapture(max)
			var all []busEvent
			var frontier uint64
			for step := 0; step < 2000; step++ {
				frontier += uint64(rng.Intn(3))
				c.flush(frontier)
				for k := rng.Intn(3); k > 0; k-- {
					e := busEvent{frontier + uint64(rng.Intn(12)), rng.Uint32()}
					c.add(e.cycle, e.value)
					all = append(all, e)
				}
			}
			got := c.finish()

			if c.generated != len(all) {
				t.Fatalf("max %d seed %d: generated %d, want %d", max, seed, c.generated, len(all))
			}
			sort.SliceStable(all, func(i, j int) bool { return all[i].cycle < all[j].cycle })
			if max > 0 && len(all) > max {
				all = all[:max]
			}
			if len(got) != len(all) {
				t.Fatalf("max %d seed %d: %d beats, want %d", max, seed, len(got), len(all))
			}
			for i := range all {
				if got[i] != all[i].value {
					t.Fatalf("max %d seed %d: beat %d = %#x, want %#x", max, seed, i, got[i], all[i].value)
				}
			}
			if cap(got) != len(got) {
				t.Errorf("max %d seed %d: cap %d, len %d; want the trace trimmed", max, seed, cap(got), len(got))
			}
		}
	}
}

// TestBusCaptureEmpty pins the shape of a bus that saw no beats: an
// empty, non-nil trace, capped or not.
func TestBusCaptureEmpty(t *testing.T) {
	for _, max := range []int{0, 10} {
		c := newBusCapture(max)
		c.flush(5)
		if got := c.finish(); got == nil || len(got) != 0 || cap(got) != 0 {
			t.Errorf("max %d: finish() = %#v (cap %d), want an empty non-nil trace", max, got, cap(got))
		}
	}
}

// TestBusCaptureGuard: a beat below the last flushed watermark means the
// watermark proof broke, and the capture must refuse it loudly rather
// than emit a trace out of cycle order. A beat at the watermark is fine.
func TestBusCaptureGuard(t *testing.T) {
	c := newBusCapture(0)
	c.add(12, 1)
	c.flush(10)
	c.add(10, 2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a beat below the flushed watermark was accepted")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "watermark") {
			t.Fatalf("panic %v does not name the watermark", r)
		}
	}()
	c.add(9, 3)
}
