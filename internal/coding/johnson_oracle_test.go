package coding_test

import (
	"testing"

	"buspower/internal/circuit"
	"buspower/internal/coding"
)

// TestContextCounterSaturation checks the Context coder's frequency
// counters against the hardware they stand for (§5.3.3): four
// concatenated 4-bit Johnson counters, whose largest count circuit's
// model reports as Max. A value repeated for three times the counter's
// range must drive a counter to exactly Max with division off, and no
// counter may pass Max on any cycle, with division off or on.
func TestContextCounterSaturation(t *testing.T) {
	jmax := circuit.NewJohnsonCounter(4).Max()
	for _, period := range []int{0, 256} {
		ctx, err := coding.NewContext(coding.ContextConfig{
			Width: 16, TableSize: 2, ShiftEntries: 2, DividePeriod: period, Lambda: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		enc := ctx.NewEncoder()
		var top uint32
		for i := 0; i < 3*int(jmax+1); i++ {
			enc.Encode(0x5)
			for _, c := range coding.ContextCounts(enc) {
				if c > jmax {
					t.Fatalf("divide period %d: a counter reached %d at cycle %d, past the Johnson counter's max %d", period, c, i, jmax)
				}
				top = max(top, c)
			}
		}
		if period == 0 && top != jmax {
			t.Errorf("division off: the repeated value's counter stopped at %d, want saturation at %d", top, jmax)
		}
	}
}
