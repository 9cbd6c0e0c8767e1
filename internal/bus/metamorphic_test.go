package bus

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"buspower/internal/workload"
)

// Metamorphic laws of the eq. 1–3 counts: transforms of a trace whose
// effect on Σλ and Σψ follows from the bus physics alone, so they are
// checked without any reference implementation.

// lawTrace is one input to the metamorphic laws.
type lawTrace struct {
	name  string
	width int
	trace []Word
}

// lawTraces returns random traces at widths 1, 2, 32 and 62, with runs
// of repeated words so idle cycles are covered, plus the quick-mode li
// register and swim memory bus traces at width 32.
func lawTraces(t *testing.T) []lawTrace {
	t.Helper()
	var out []lawTrace
	rng := rand.New(rand.NewSource(16))
	for _, w := range []int{1, 2, 32, 62} {
		for k := 0; k < 4; k++ {
			trace := make([]Word, 1+rng.Intn(500))
			for i := range trace {
				if i > 0 && rng.Intn(4) == 0 {
					trace[i] = trace[i-1]
				} else {
					trace[i] = Word(rng.Uint64()) & Mask(w)
				}
			}
			out = append(out, lawTrace{fmt.Sprintf("random/w%d/%d", w, k), w, trace})
		}
	}
	// The experiments' quick-mode run bound.
	quickRun := workload.RunConfig{MaxInstructions: 250_000, MaxBusValues: 25_000}
	for _, src := range []struct{ workload, bus string }{{"li", "reg"}, {"swim", "mem"}} {
		ts, err := workload.Traces(src.workload, quickRun)
		if err != nil {
			t.Fatal(err)
		}
		vals := ts.Reg
		if src.bus == "mem" {
			vals = ts.Mem
		}
		trace := make([]Word, len(vals))
		for i, v := range vals {
			trace[i] = Word(v)
		}
		out = append(out, lawTrace{src.workload + "-" + src.bus, 32, trace})
	}
	return out
}

// measured is one trace metered twice: by the production meter, which
// keeps the Σ totals, and by the bit-serial oracle, which also keeps the
// per-wire and per-pair histograms behind them.
type measured struct {
	meter *Meter
	ref   *referenceMeter
}

func measure(width int, trace []Word) measured {
	m := measured{NewMeterLite(width), newReferenceMeter(width)}
	RecordValues(m.meter, trace)
	for _, w := range trace {
		m.ref.Record(w)
	}
	return m
}

// sameCounts reports whether two measurements agree on the meter's Σλ
// and Σψ and on the oracle's per-wire and per-pair histograms.
func sameCounts(a, b measured) bool {
	return a.meter.Transitions() == b.meter.Transitions() &&
		a.meter.Couplings() == b.meter.Couplings() &&
		slices.Equal(a.ref.perWire, b.ref.perWire) &&
		slices.Equal(a.ref.perPair, b.ref.perPair)
}

// TestCostInversionInvariance: complementing every word flips every
// wire's level but not which wires toggle, nor whether an adjacent pair
// moves together, apart or in opposite directions; the counts cannot
// change.
func TestCostInversionInvariance(t *testing.T) {
	for _, lt := range lawTraces(t) {
		comp := make([]Word, len(lt.trace))
		for i, w := range lt.trace {
			comp[i] = ^w & Mask(lt.width)
		}
		a, b := measure(lt.width, lt.trace), measure(lt.width, comp)
		if !sameCounts(a, b) {
			t.Errorf("%s: complement moved the counts: λ %d→%d, ψ %d→%d",
				lt.name, a.meter.Transitions(), b.meter.Transitions(), a.meter.Couplings(), b.meter.Couplings())
		}
	}
}

// TestCostReversalInvariance: running a trace backwards swaps each
// transition's rising and falling wires, which eq. 2 and eq. 3 weigh
// alike; the counts cannot change.
func TestCostReversalInvariance(t *testing.T) {
	for _, lt := range lawTraces(t) {
		rev := slices.Clone(lt.trace)
		slices.Reverse(rev)
		a, b := measure(lt.width, lt.trace), measure(lt.width, rev)
		if !sameCounts(a, b) {
			t.Errorf("%s: reversal moved the counts: λ %d→%d, ψ %d→%d",
				lt.name, a.meter.Transitions(), b.meter.Transitions(), a.meter.Couplings(), b.meter.Couplings())
		}
	}
}
