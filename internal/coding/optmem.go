package coding

import (
	"fmt"

	"buspower/internal/bus"
)

// OptMemTranscoder implements optimal memoryless encoding for low-power
// buses (Chee & Colbourn, arXiv:0712.2640; PAPERS.md #1): each k-bit data
// value maps to a fixed codeword on n = k + extra wires, chosen as the
// value-th word in weight-then-value order. The codebook is therefore the
// 2^k minimum-weight words on n wires — the assignment that minimizes the
// expected number of high wires (and, for independent uniform values, the
// expected transitions between consecutive codewords) among all
// memoryless codes of that redundancy. Unlike the paper's prediction
// transcoders it keeps no state at all: the same value always produces
// the same wire pattern, so repeated values cost zero transitions and the
// decoder is a pure combinational rank circuit.
type OptMemTranscoder struct {
	width     int // data bits
	extra     int // redundant wires
	wires     int // coded bus width = width + extra
	maxWeight int // weight bound of the codebook (ball radius)
	stages    int // normalized adder stages of the rank/unrank datapath
	name      string
}

// NewOptMem builds an optimal-memoryless transcoder with the given data
// width and number of extra (redundant) wires.
func NewOptMem(width, extra int) (*OptMemTranscoder, error) {
	if extra < 1 || extra > 8 {
		return nil, fmt.Errorf("coding: optmem extra wires %d outside [1, 8]", extra)
	}
	wires := width + extra
	if err := enumCheck("optmem", width, wires); err != nil {
		return nil, err
	}
	r, err := ballRadius(wires, 1<<uint(width))
	if err != nil {
		return nil, err
	}
	return &OptMemTranscoder{
		width:     width,
		extra:     extra,
		wires:     wires,
		maxWeight: r,
		stages:    enumStages(wires),
		name:      fmt.Sprintf("optmem-%d+%d", width, extra),
	}, nil
}

// Name implements Transcoder.
func (t *OptMemTranscoder) Name() string { return t.name }

// DataWidth implements Transcoder.
func (t *OptMemTranscoder) DataWidth() int { return t.width }

// BusWidth returns the coded bus width (data plus redundant wires).
func (t *OptMemTranscoder) BusWidth() int { return t.wires }

// MaxWeight returns the codebook's weight bound: no codeword carries more
// high wires than this (property-tested).
func (t *OptMemTranscoder) MaxWeight() int { return t.maxWeight }

// Stages returns the size of the rank/unrank datapath in normalized
// 32-bit adder stages — the circuit model's entries parameter.
func (t *OptMemTranscoder) Stages() int { return t.stages }

// ConfigKey implements ConfigKeyer.
func (t *OptMemTranscoder) ConfigKey() string {
	return fmt.Sprintf("optmem+%d/w%d", t.extra, t.width)
}

// NewEncoder implements Transcoder.
func (t *OptMemTranscoder) NewEncoder() Encoder {
	e := &optMemEncoder{t: t}
	e.cache.init()
	return e
}

// NewDecoder implements Transcoder.
func (t *OptMemTranscoder) NewDecoder() Decoder { return &optMemDecoder{t: t} }

// gridOps returns the encoder's operation counts for a run of the given
// length. The enumerative coders' activity is purely formulaic: the
// adder chain switches on every cycle regardless of data (like the
// inversion coder's majority voter), so the unrank cache, which skips
// the walk in simulation only, leaves the modeled counts unchanged.
func (t *OptMemTranscoder) gridOps(cycles uint64) OpStats {
	return OpStats{
		Cycles:            cycles,
		CodeSends:         cycles,
		CounterIncrements: cycles * uint64(t.stages),
	}
}

type optMemEncoder struct {
	t      *OptMemTranscoder
	cycles uint64
	cache  unrankCache
}

func (e *optMemEncoder) Encode(v uint64) bus.Word {
	e.cycles++
	v &= uint64(bus.Mask(e.t.width))
	img, ok := e.cache.slot(v)
	if !ok {
		*img = ballUnrank(e.t.wires, v)
	}
	return bus.Word(*img)
}

func (e *optMemEncoder) BusWidth() int { return e.t.wires }
func (e *optMemEncoder) Reset()        { e.cycles = 0 }
func (e *optMemEncoder) Ops() OpStats  { return e.t.gridOps(e.cycles) }

type optMemDecoder struct {
	t *OptMemTranscoder
}

func (d *optMemDecoder) Decode(w bus.Word) uint64 {
	return ballRank(d.t.wires, uint64(w)&uint64(bus.Mask(d.t.wires)))
}

func (d *optMemDecoder) Reset() {}
