package coding

import (
	"fmt"
	"math/bits"
	"strings"

	"buspower/internal/bus"
)

// InversionTranscoder is the generalized inversion coder of §4.3
// (Figure 10): a stateless scheme that sends the input XORed with one of a
// small set of constant bit patterns, choosing the pattern that moves the
// bus most cheaply from its current state, and identifies the chosen
// pattern on log2(#patterns) extra control wires.
//
// The cost function is parameterized by the Λ the encoder *assumes*
// (Figure 15's λ0 / λ1 / λN families): λ0 counts transitions only — the
// classic Bus-Invert criterion of Stan & Burleson — while λ1 and λN also
// weigh coupling events at Λ=1 or the true wire Λ respectively.
//
// Following §5.2, the coder minimizes the cost of the XOR of the candidate
// with the *current bus value* (not the raw Hamming weight of the input),
// so strings of repeated values cost nothing.
type InversionTranscoder struct {
	width         int
	patterns      []uint64
	assumedLambda float64
	ctrlBits      int
	name          string
}

// NewInversion builds a generalized inversion coder. patterns must contain
// 1..16 constant patterns and include the all-zero pattern so the identity
// encoding is always available; assumedLambda is the Λ used inside the
// pattern-selection cost function.
func NewInversion(width int, patterns []uint64, assumedLambda float64) (*InversionTranscoder, error) {
	checkWidth(width)
	if len(patterns) < 1 || len(patterns) > 16 {
		return nil, fmt.Errorf("coding: inversion coder needs 1..16 patterns, got %d", len(patterns))
	}
	hasZero := false
	seen := make(map[uint64]bool, len(patterns))
	mask := uint64(bus.Mask(width))
	ps := make([]uint64, len(patterns))
	for i, p := range patterns {
		p &= mask
		if seen[p] {
			return nil, fmt.Errorf("coding: duplicate inversion pattern %#x", p)
		}
		seen[p] = true
		if p == 0 {
			hasZero = true
		}
		ps[i] = p
	}
	if !hasZero {
		return nil, fmt.Errorf("coding: inversion pattern set must include the zero pattern")
	}
	ctrl := bits.Len(uint(len(ps) - 1))
	if ctrl == 0 {
		ctrl = 1 // degenerate single-pattern coder still reserves an id wire
	}
	if width+ctrl > bus.MaxWidth {
		return nil, fmt.Errorf("coding: width %d + %d id wires exceeds %d", width, ctrl, bus.MaxWidth)
	}
	return &InversionTranscoder{
		width:         width,
		patterns:      ps,
		assumedLambda: assumedLambda,
		ctrlBits:      ctrl,
		name:          fmt.Sprintf("inversion-%dpat-l%g", len(ps), assumedLambda),
	}, nil
}

// NewBusInvert returns the classic two-pattern Bus-Invert coder
// (send value or complement, one invert wire) with the given assumed Λ.
func NewBusInvert(width int, assumedLambda float64) (*InversionTranscoder, error) {
	return NewInversion(width, []uint64{0, ^uint64(0)}, assumedLambda)
}

// DefaultInversionPatterns returns a standard pattern set of the given
// size (a power of two up to 8): zero, all-ones, the two alternating
// checkerboards, and half-word inversions — the constant vectors the
// paper's generalized coder draws from.
func DefaultInversionPatterns(width, n int) ([]uint64, error) {
	checkWidth(width)
	mask := uint64(bus.Mask(width))
	alt := uint64(0x5555555555555555) & mask
	lower := uint64(bus.Mask((width + 1) / 2))
	upper := mask &^ lower
	all := []uint64{
		0,
		^uint64(0) & mask,
		alt,
		^alt & mask,
		lower,
		upper,
		uint64(0x3333333333333333) & mask,
		^uint64(0x3333333333333333) & mask,
	}
	if n < 1 || n > len(all) {
		return nil, fmt.Errorf("coding: supported inversion pattern-set sizes are 1..%d, got %d", len(all), n)
	}
	return all[:n], nil
}

// Name implements Transcoder.
func (t *InversionTranscoder) Name() string { return t.name }

// ConfigKey implements ConfigKeyer: the name carries the pattern count
// and assumed Λ but not the patterns themselves or the width.
func (t *InversionTranscoder) ConfigKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/w%d/p", t.name, t.width)
	for _, p := range t.patterns {
		fmt.Fprintf(&b, "%x.", p)
	}
	return b.String()
}

// DataWidth implements Transcoder.
func (t *InversionTranscoder) DataWidth() int { return t.width }

// NewEncoder implements Transcoder.
func (t *InversionTranscoder) NewEncoder() Encoder {
	return &inversionEncoder{t: t}
}

// NewDecoder implements Transcoder.
func (t *InversionTranscoder) NewDecoder() Decoder {
	return &inversionDecoder{t: t}
}

type inversionEncoder struct {
	t     *InversionTranscoder
	state bus.Word
	ops   OpStats
}

func (e *inversionEncoder) Encode(v uint64) bus.Word {
	t := e.t
	v &= uint64(bus.Mask(t.width))
	w := e.BusWidth()
	best := bus.Word(0)
	bestCost := 0.0
	for k, p := range t.patterns {
		cand := bus.Word(v^p) | bus.Word(k)<<uint(t.width)
		cost := bus.Cost(e.state, cand, w, t.assumedLambda)
		if k == 0 || cost < bestCost {
			best, bestCost = cand, cost
		}
	}
	e.ops.Cycles++
	e.ops.RawSends++
	e.state = best
	return best
}

// encodeStream implements streamEncoder: the same candidate ranking as
// Encode with the width masks hoisted out of the loop and, for integral
// assumed Λ, the cost comparison run in uint64 (bus.CostMaskedInt) —
// both preserve every first-strictly-cheaper pattern choice exactly.
// TestInversionEncodeStreamMatchesEncode pins it cycle-for-cycle.
func (e *inversionEncoder) encodeStream(vals []uint64, st *bus.MeterStream) {
	t := e.t
	mask := uint64(bus.Mask(t.width))
	pairMask := bus.Mask(t.width + t.ctrlBits - 1)
	shift := uint(t.width)
	patterns := t.patterns
	state := e.state
	var accT, accC uint64
	if li, ok := intLambda(t.assumedLambda); ok {
		for _, v := range vals {
			v &= mask
			var best bus.Word
			var bestCost uint64
			for k, p := range patterns {
				cand := bus.Word(v^p) | bus.Word(k)<<shift
				cost := bus.CostMaskedInt(state, cand, pairMask, li)
				if k == 0 || cost < bestCost {
					best, bestCost = cand, cost
				}
			}
			tr, c := bus.Activity(state, state^best, pairMask)
			accT += tr
			accC += c
			state = best
		}
	} else {
		lambda := t.assumedLambda
		for _, v := range vals {
			v &= mask
			var best bus.Word
			var bestCost float64
			for k, p := range patterns {
				cand := bus.Word(v^p) | bus.Word(k)<<shift
				cost := bus.CostMasked(state, cand, pairMask, lambda)
				if k == 0 || cost < bestCost {
					best, bestCost = cand, cost
				}
			}
			tr, c := bus.Activity(state, state^best, pairMask)
			accT += tr
			accC += c
			state = best
		}
	}
	st.AddBlock(uint64(len(vals)), accT, accC, state)
	e.state = state
	e.ops.Cycles += uint64(len(vals))
	e.ops.RawSends += uint64(len(vals))
}

func (e *inversionEncoder) BusWidth() int { return e.t.width + e.t.ctrlBits }
func (e *inversionEncoder) Reset()        { e.state = 0; e.ops = OpStats{} }
func (e *inversionEncoder) Ops() OpStats  { return e.ops }

type inversionDecoder struct {
	t *InversionTranscoder
}

func (d *inversionDecoder) Decode(w bus.Word) uint64 {
	t := d.t
	k := int(w >> uint(t.width))
	if k >= len(t.patterns) {
		panic(fmt.Sprintf("coding: inversion decoder received invalid pattern id %d", k))
	}
	return uint64(w&bus.Mask(t.width)) ^ t.patterns[k]
}
func (d *inversionDecoder) Reset() {}
