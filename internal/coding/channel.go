package coding

import (
	"fmt"

	"buspower/internal/bus"
)

// The prediction-based transcoders (window, context, stride) share one
// physical bus protocol, the W_B+2 wire arrangement of the paper's
// Figure 2: W data wires plus two control wires. The control wires are
// transition-coded so that holding them steady costs nothing:
//
//	control transition 00 — "code" cycle: the data-wire transition vector
//	                        is a codeword from the shared codebook
//	                        (all-zero = LAST-value prediction).
//	control transition 01 — "raw" cycle: the data wires carry the value
//	                        itself (absolute).
//	control transition 10 — "raw inverted" cycle: the data wires carry the
//	                        bitwise complement of the value.
//
// On raw cycles the encoder picks plain or inverted form, whichever moves
// the bus more cheaply under its assumed Λ (inversion coding folded into
// the miss path, §5.2).

type txMode int

const (
	modeCode txMode = iota
	modeRaw
	modeRawInverted
)

// channel is the encoder-side bus driver. The data and pair masks are
// hoisted into the struct at construction: sendRaw ranks two candidate
// bus states every raw cycle, and recomputing masks per candidate
// dominated the encode profile.
type channel struct {
	width       int     // data wires
	lambda      float64 // assumed Λ for the raw-vs-inverted choice
	state       bus.Word
	dataMask    bus.Word // Mask(width)
	pairMask    bus.Word // Mask(busWidth-1): adjacent pairs incl. control wires
	ctrlRaw     bus.Word // the raw-cycle control wire
	ctrlInv     bus.Word // the inverted-raw-cycle control wire
	lambdaInt   uint64   // integral Λ when lambdaIsInt
	lambdaIsInt bool

	// accT/accC accumulate the Σ transition and coupling counts of every
	// send since the last beginBlock: bus.Activity's counts, which
	// MeterStream.drain also applies to consecutive bus states (sendRaw's
	// closed form computes the same counts for the chosen candidate). Bulk
	// encode paths zero them with beginBlock, skip per-cycle stream
	// records, and fold the run into their meter with one
	// MeterStream.AddBlock; single-step paths that still record each
	// word into a stream simply leave the accumulators stale.
	accT, accC uint64
}

// beginBlock starts a self-accounted run: the counts accumulated by
// subsequent sends belong to the caller's block.
func (c *channel) beginBlock() { c.accT, c.accC = 0, 0 }

// intLambda reports whether lambda is usable by bus.CostMaskedInt:
// a non-negative integer small enough that every cost stays exactly
// representable (see CostMaskedInt's bound).
func intLambda(lambda float64) (uint64, bool) {
	if lambda >= 0 && lambda < 1<<40 && lambda == float64(uint64(lambda)) {
		return uint64(lambda), true
	}
	return 0, false
}

func newChannel(width int, lambda float64) channel {
	checkWidth(width)
	li, ok := intLambda(lambda)
	return channel{
		width:       width,
		lambda:      lambda,
		dataMask:    bus.Mask(width),
		pairMask:    bus.Mask(width + 1),
		ctrlRaw:     bus.Word(1) << uint(width),
		ctrlInv:     bus.Word(1) << uint(width+1),
		lambdaInt:   li,
		lambdaIsInt: ok,
	}
}

func (c *channel) busWidth() int { return c.width + 2 }

// sendCode applies the codeword as a transition vector to the data wires.
func (c *channel) sendCode(code bus.Word) bus.Word {
	t := code & c.dataMask
	tr, cp := bus.Activity(c.state, t, c.pairMask)
	c.accT += tr
	c.accC += cp
	c.state ^= t
	return c.state
}

// sendRaw drives the value (or its complement) onto the data wires and
// toggles the corresponding control wire, whichever candidate costs less
// under the assumed Λ (a tie keeps the raw form). It reports whether the
// inverted form was chosen.
//
// Both candidates are ranked with four popcounts. With s the current bus
// state, t the data-wire transition vector of the raw form, D the data
// mask and R/I the raw/inverted control wires, the candidates' transition
// vectors are t|R and (t^D)|I, so:
//
//   - self transitions are pt+1 and width-pt+1 for pt = weight(t);
//   - single-toggle pairs (exactly one wire of an adjacent pair toggles,
//     eq. 3 cost 1) are the same set for both: complementing the data
//     wires keeps every data pair's XOR, the data-MSB/R pair is t[w-1]^1
//     against ¬t[w-1]^0, and the R/I pair toggles exactly one wire in
//     either form;
//   - opposite-toggle pairs (cost 2) are the both-toggle pairs whose old
//     bits differ, one popcount per candidate.
//
// The integer counts T and C are then compared as T + Λ·C: in uint64
// when Λ is integral (every experiment except Figure 15's fractional λN
// points), and otherwise as float64(T) + Λ·float64(C) per candidate —
// exactly bus.CostMasked's expression, so every decision matches ranking
// the two candidates with CostMasked (TestChannelIntCostMatchesFloat,
// and the naive per-wire oracle of TestSendRawMatchesOracle).
func (c *channel) sendRaw(v uint64) (bus.Word, bool) {
	s := c.state
	d := c.dataMask
	x := bus.Word(v) & d
	t := (s ^ x) & d
	pt := uint64(bus.Weight(t))
	pm := c.pairMask
	tr, ti := t|c.ctrlRaw, (t^d)|c.ctrlInv
	single := uint64(bus.Weight((tr ^ tr>>1) & pm))
	differ := (s ^ s>>1) & pm
	tRaw, cRaw := pt+1, single+2*uint64(bus.Weight(tr&(tr>>1)&differ))
	tInv, cInv := uint64(c.width)-pt+1, single+2*uint64(bus.Weight(ti&(ti>>1)&differ))
	var inverted bool
	if c.lambdaIsInt {
		inverted = tInv+c.lambdaInt*cInv < tRaw+c.lambdaInt*cRaw
	} else {
		// The counts are below 2^7, so converting through int64 (one
		// instruction, where uint64 needs a range check) is exact.
		inverted = float64(int64(tInv))+c.lambda*float64(int64(cInv)) < float64(int64(tRaw))+c.lambda*float64(int64(cRaw))
	}
	// The choice is data-dependent and close to a coin flip on busy
	// traces, so the winner is selected with a mask rather than a branch.
	var sel uint64
	if inverted {
		sel = ^uint64(0)
	}
	stRaw, stInv := s^tr, s^ti
	c.accT += tRaw ^ (tRaw^tInv)&sel
	c.accC += cRaw ^ (cRaw^cInv)&sel
	c.state = stRaw ^ (stRaw^stInv)&bus.Word(sel)
	return c.state, inverted
}

func (c *channel) reset() { c.state, c.accT, c.accC = 0, 0, 0 }

// decodeChannel is the decoder-side bus observer.
type decodeChannel struct {
	width int
	state bus.Word
}

func newDecodeChannel(width int) decodeChannel {
	checkWidth(width)
	return decodeChannel{width: width}
}

// observe classifies one received bus state. For modeCode the payload is
// the data-wire transition vector; for raw modes it is the recovered value.
func (c *decodeChannel) observe(w bus.Word) (txMode, bus.Word) {
	t := c.state ^ w
	c.state = w
	dataMask := bus.Mask(c.width)
	rawToggled := t&(bus.Word(1)<<uint(c.width)) != 0
	invToggled := t&(bus.Word(1)<<uint(c.width+1)) != 0
	switch {
	case !rawToggled && !invToggled:
		return modeCode, t & dataMask
	case rawToggled && !invToggled:
		return modeRaw, w & dataMask
	case invToggled && !rawToggled:
		return modeRawInverted, ^w & dataMask
	default:
		panic(fmt.Sprintf("coding: both control wires toggled in one cycle (transition %#x); encoder/decoder desync", t))
	}
}

func (c *decodeChannel) reset() { c.state = 0 }
