// Package bus provides the fundamental abstractions of the paper's energy
// model: bus words, transition vectors, and the per-wire accounting of
// self transitions (λ_n) and inter-wire coupling events (ψ_n) defined by
// equations (1)-(3) of "Exploiting Prediction to Reduce Power on Buses".
//
// Energy expended by wire n over a trace is modeled as
//
//	E_n ∝ L_bus · (λ_n + Λ·ψ_n)
//
// where λ_n counts the charge/discharge events on the wire itself and ψ_n
// counts the cycles in which the relative polarity of wires n and n+1
// changes (exactly one of the adjacent pair toggles), weighted by the
// technology-dependent ratio Λ = C_I / C_S between inter-wire and
// wire-to-substrate capacitance.
package bus

import (
	"fmt"
	"math/bits"
)

// Word is the state of up to 64 bus wires; bit n is wire n.
type Word uint64

// MaxWidth is the widest bus representable by Word.
const MaxWidth = 64

// Mask returns a Word with the low width bits set.
// It panics if width is outside [0, MaxWidth].
func Mask(width int) Word {
	if uint(width) > MaxWidth {
		panicWidth(width)
	}
	// Branchless across the whole [0, MaxWidth] range: Go defines
	// over-wide shifts to yield 0, so width 0 masks to nothing and
	// width 64 keeps every bit. Keeping the body this small lets Mask
	// inline into the per-cycle encode/metering paths.
	return ^Word(0) >> uint(MaxWidth-width)
}

// panicWidth is kept out of line so Mask itself stays under the inlining
// budget — inlining the Sprintf panic path into Mask pushes it over.
//
//go:noinline
func panicWidth(width int) {
	panic(fmt.Sprintf("bus: invalid width %d", width))
}

// Transitions returns the transition vector between two successive bus
// states: bit n is set iff wire n changes value.
func Transitions(prev, cur Word) Word {
	return prev ^ cur
}

// Weight returns the Hamming weight of w — with transition coding this is
// the number of wires that expend charge/discharge energy.
func Weight(w Word) int {
	return bits.OnesCount64(uint64(w))
}

// Activity returns the per-cycle contributions to Σλ_n (eq. 2) and Σψ_n
// (eq. 3) of applying transition vector t to bus state old: transitions
// is the number of toggled wires, and couplings sums, over the adjacent
// pairs (n, n+1) selected by pairMask, the eq. (3) term
//
//	|(W_n − W_{n+1}) − (W'_n − W'_{n+1})|
//
// with arithmetic differences, so a pair contributes
//
//	0 if neither wire toggles, or both toggle in the same direction
//	  (the voltage across the coupling capacitor is unchanged),
//	1 if exactly one wire toggles (the coupling cap swings by Vdd),
//	2 if both toggle and their old levels differ: one rises as the
//	  other falls (the cap swings by 2·Vdd).
//
// t must be masked to the bus width and pairMask is Mask(width-1). It is
// the one implementation of the eq. (2)/(3) counts: the Meter, Cost and
// the encoders' block accounting all call it.
func Activity(old, t, pairMask Word) (transitions, couplings uint64) {
	single := (t ^ t>>1) & pairMask
	opposite := t & (t >> 1) & (old ^ old>>1) & pairMask
	return uint64(bits.OnesCount64(uint64(t))),
		uint64(bits.OnesCount64(uint64(single))) + 2*uint64(bits.OnesCount64(uint64(opposite)))
}

// Cost returns the Λ-weighted energy cost (in units of wire transitions)
// of moving a bus of the given width from prev to cur:
//
//	cost = #transitions + Λ · #coupling events.
func Cost(prev, cur Word, width int, lambda float64) float64 {
	m := Mask(width)
	return CostMasked(prev&m, cur&m, m>>1, lambda)
}

// CostMasked is Cost for callers that keep their states pre-masked and
// hold the width's pair mask (Mask(width-1)) hoisted. The encoders rank
// candidate bus states with the same expression over bus.Activity's
// counts.
func CostMasked(prev, cur, pairMask Word, lambda float64) float64 {
	tr, c := Activity(prev, prev^cur, pairMask)
	// The counts are below 2^7, so converting through int64 (one
	// instruction, where uint64 needs a range check) is exact.
	return float64(int64(tr)) + lambda*float64(int64(c))
}

// ExpectedSelfCoupling returns the expected number of coupling events
// caused by applying transition vector t to a bus whose wire polarities are
// uniformly random. Pairs where exactly one wire toggles always cost 1;
// pairs where both wires toggle cost 0 (same direction) or 2 (opposite
// directions) with equal probability, i.e. 1 in expectation. The result is
// expressed in half-events to stay integral: divide by 2 for events.
//
// Codebook construction uses this to rank candidate transition vectors by
// coupling cost without knowing the live bus state.
func ExpectedSelfCoupling(t Word, width int) int {
	if width < 2 {
		return 0
	}
	t &= Mask(width)
	pm := Mask(width - 1)
	single := (t ^ (t >> 1)) & pm
	both := (t & (t >> 1)) & pm
	return 2*Weight(single) + 2*Weight(both) // half-events: 1 event == 2
}
