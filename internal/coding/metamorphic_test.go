package coding

import (
	"fmt"
	"testing"
)

// TestDictionaryOpStatsIndependentOfLambda checks a metamorphic law of the
// dictionary coders: the assumed Λ orders the codebook and picks raw or
// inverted fallbacks, so it changes which wires toggle, but never which
// entries are probed, shifted, counted, swapped or replaced. A Window or
// Context run's OpStats must therefore be the same at every assumed Λ.
// The sizes sit on both sides of rowsMaxSlots, so the partial-match rows
// and the hash index each drive the lookups.
func TestDictionaryOpStatsIndependentOfLambda(t *testing.T) {
	if !(8 <= rowsMaxSlots && 16+8 <= rowsMaxSlots && rowsMaxSlots < 300) {
		t.Fatalf("rowsMaxSlots = %d no longer splits the sizes below", rowsMaxSlots)
	}
	builders := []struct {
		name  string
		build func(lambda float64) (Transcoder, error)
	}{
		{"window-8", func(l float64) (Transcoder, error) { return NewWindow(32, 8, l) }},
		{"window-300", func(l float64) (Transcoder, error) { return NewWindow(32, 300, l) }},
		{"context-t16", func(l float64) (Transcoder, error) {
			return NewContext(ContextConfig{Width: 32, TableSize: 16, ShiftEntries: 8, DividePeriod: 4096, TransitionBased: true, Lambda: l})
		}},
		{"context-t300", func(l float64) (Transcoder, error) {
			return NewContext(ContextConfig{Width: 32, TableSize: 300, ShiftEntries: 8, DividePeriod: 4096, TransitionBased: true, Lambda: l})
		}},
	}
	codeSends := map[string]uint64{}
	for _, wl := range []string{"li", "swim", "gcc"} {
		for _, busName := range []string{"reg", "mem"} {
			trace := realTrace(t, wl, busName)
			for _, b := range builders {
				t.Run(fmt.Sprintf("%s-%s/%s", wl, busName, b.name), func(t *testing.T) {
					var want OpStats
					for i, lambda := range []float64{0, 0.5, 1, 4} {
						tc, err := b.build(lambda)
						if err != nil {
							t.Fatal(err)
						}
						var ev Evaluator
						ev.Use(tc)
						ev.Verify = VerifyOff
						res, err := ev.Evaluate(trace, lambda, nil)
						if err != nil {
							t.Fatal(err)
						}
						if i == 0 {
							want = res.Ops
							if want.Cycles != uint64(len(trace)) {
								t.Fatalf("Λ=0 run encoded %d of %d values", want.Cycles, len(trace))
							}
							codeSends[b.name] += want.CodeSends
							continue
						}
						if res.Ops != want {
							t.Errorf("assumed Λ=%g: OpStats %+v, at Λ=0 %+v", lambda, res.Ops, want)
						}
					}
				})
			}
		}
	}
	for _, b := range builders {
		if codeSends[b.name] == 0 {
			t.Errorf("%s never sent a dictionary code: the law was checked on raw sends only", b.name)
		}
	}
}
