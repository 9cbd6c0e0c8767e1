package coding

import (
	"fmt"

	"buspower/internal/bus"
)

// VCTranscoder implements the Valentini–Chiani optimal scheme for
// energy-efficient bus encoding (arXiv:2303.06409; PAPERS.md #2). Where
// optmem assigns fixed codewords, vc codes *transitions*: the k-bit value
// selects the value-th lowest-weight transition vector on n = k + extra
// wires, which is XORed onto the previous bus state. Every cycle
// therefore toggles at most radius wires — radius being the minimal t
// with |B(n,t)| ≥ 2^k — and value 0 toggles none; Valentini & Chiani
// prove this weight-ordered transition mapping minimizes expected
// switching among all fixed-rate codes with n wires. The encoder and
// decoder each hold one n-bit state register plus the same enumerative
// rank datapath as optmem.
type VCTranscoder struct {
	width  int // data bits
	extra  int // redundant wires
	wires  int // coded bus width = width + extra
	radius int // per-cycle transition bound (ball radius)
	stages int // normalized adder stages of the rank/unrank datapath
	name   string
}

// NewVC builds a Valentini–Chiani transition-coded transcoder.
func NewVC(width, extra int) (*VCTranscoder, error) {
	if extra < 1 || extra > 8 {
		return nil, fmt.Errorf("coding: vc extra wires %d outside [1, 8]", extra)
	}
	wires := width + extra
	if err := enumCheck("vc", width, wires); err != nil {
		return nil, err
	}
	r, err := ballRadius(wires, 1<<uint(width))
	if err != nil {
		return nil, err
	}
	return &VCTranscoder{
		width:  width,
		extra:  extra,
		wires:  wires,
		radius: r,
		stages: enumStages(wires),
		name:   fmt.Sprintf("vc-%d+%d", width, extra),
	}, nil
}

// Name implements Transcoder.
func (t *VCTranscoder) Name() string { return t.name }

// DataWidth implements Transcoder.
func (t *VCTranscoder) DataWidth() int { return t.width }

// BusWidth returns the coded bus width.
func (t *VCTranscoder) BusWidth() int { return t.wires }

// Radius returns the per-cycle transition bound: no cycle toggles more
// wires than this (property-tested).
func (t *VCTranscoder) Radius() int { return t.radius }

// Stages returns the rank/unrank datapath size in normalized 32-bit
// adder stages — the circuit model's entries parameter.
func (t *VCTranscoder) Stages() int { return t.stages }

// ConfigKey implements ConfigKeyer.
func (t *VCTranscoder) ConfigKey() string {
	return fmt.Sprintf("vc+%d/w%d", t.extra, t.width)
}

// NewEncoder implements Transcoder.
func (t *VCTranscoder) NewEncoder() Encoder { return &vcEncoder{t: t} }

// NewDecoder implements Transcoder.
func (t *VCTranscoder) NewDecoder() Decoder { return &vcDecoder{t: t} }

// gridOps mirrors optMemTranscoder.gridOps: the transition-vector unrank
// datapath switches every cycle, independent of data.
func (t *VCTranscoder) gridOps(cycles uint64) OpStats {
	return OpStats{
		Cycles:            cycles,
		CodeSends:         cycles,
		CounterIncrements: cycles * uint64(t.stages),
	}
}

type vcEncoder struct {
	t      *VCTranscoder
	state  uint64
	cycles uint64
}

func (e *vcEncoder) Encode(v uint64) bus.Word {
	e.cycles++
	e.state ^= ballUnrank(e.t.wires, v&uint64(bus.Mask(e.t.width)))
	return bus.Word(e.state)
}

func (e *vcEncoder) BusWidth() int { return e.t.wires }
func (e *vcEncoder) Reset()        { e.state, e.cycles = 0, 0 }
func (e *vcEncoder) Ops() OpStats  { return e.t.gridOps(e.cycles) }

type vcDecoder struct {
	t    *VCTranscoder
	prev uint64
}

func (d *vcDecoder) Decode(w bus.Word) uint64 {
	cur := uint64(w) & uint64(bus.Mask(d.t.wires))
	tv := d.prev ^ cur
	d.prev = cur
	return ballRank(d.t.wires, tv)
}

func (d *vcDecoder) Reset() { d.prev = 0 }

// vcCodedMeter materializes the prefix-XOR state stream and meters it
// lane-parallel — the grid fast path.
func vcCodedMeter(t *VCTranscoder, trace []uint64) *bus.Meter {
	mask := uint64(bus.Mask(t.width))
	coded := make([]uint64, len(trace))
	cache := newUnrankCache()
	var state uint64
	for i, v := range trace {
		v &= mask
		img, ok := cache.slot(v)
		if !ok {
			*img = ballUnrank(t.wires, v)
		}
		state ^= *img
		coded[i] = state
	}
	return bus.NewSlicedTrace(t.wires, coded).MeterLite()
}
