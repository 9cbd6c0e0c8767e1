package coding

import (
	"fmt"

	"buspower/internal/bus"
)

// LowWeightTranscoder implements Valentini–Chiani's practical low-weight
// codes (arXiv:2606.14203; PAPERS.md #3): the data bus is partitioned
// into groups and each group runs its own small transition-ball code
// (exactly the vc construction) on its bits plus its own extra wires.
// Splitting sacrifices a little of the monolithic code's weight bound —
// the per-cycle budget becomes the *sum* of the per-group radii — but
// shrinks the enumerative datapath from one n-wide adder chain to g
// short ones, which is where the "practical" in the title comes from:
// hardware cost drops ~g-fold while most of the switching savings
// survive. groups=1 degenerates to the monolithic vc code.
type LowWeightTranscoder struct {
	width  int // data bits
	groups int
	extra  int // redundant wires per group
	wires  int // coded bus width = width + groups*extra
	budget int // per-cycle transition budget = Σ group radii
	stages int // Σ normalized adder stages over the group datapaths
	grp    []lwGroup
	name   string
}

// lwGroup is one contiguous block of the coded bus: bits of the data
// value [shift, shift+bits) coded on wires [off, off+wires).
type lwGroup struct {
	bits   int
	shift  uint
	wires  int
	off    uint
	radius int
}

// NewLowWeight builds a practical low-weight transcoder: width data bits
// split into groups contiguous blocks, each with extra redundant wires.
func NewLowWeight(width, groups, extra int) (*LowWeightTranscoder, error) {
	if groups < 1 || groups > 8 {
		return nil, fmt.Errorf("coding: lowweight groups %d outside [1, 8]", groups)
	}
	if extra < 1 || extra > 4 {
		return nil, fmt.Errorf("coding: lowweight extra wires %d outside [1, 4]", extra)
	}
	if groups > width {
		return nil, fmt.Errorf("coding: lowweight cannot split %d bits into %d groups", width, groups)
	}
	wires := width + groups*extra
	if err := enumCheck("lowweight", width, wires); err != nil {
		return nil, err
	}
	t := &LowWeightTranscoder{
		width:  width,
		groups: groups,
		extra:  extra,
		wires:  wires,
		name:   fmt.Sprintf("lowweight-%dg%d+%d", width, groups, extra),
	}
	// The first width%groups groups carry one extra data bit.
	base, rem := width/groups, width%groups
	var shift, off uint
	for i := 0; i < groups; i++ {
		bits := base
		if i < rem {
			bits++
		}
		gw := bits + extra
		r, err := ballRadius(gw, 1<<uint(bits))
		if err != nil {
			return nil, err
		}
		t.grp = append(t.grp, lwGroup{bits: bits, shift: shift, wires: gw, off: off, radius: r})
		t.budget += r
		t.stages += enumStages(gw)
		shift += uint(bits)
		off += uint(gw)
	}
	return t, nil
}

// Name implements Transcoder.
func (t *LowWeightTranscoder) Name() string { return t.name }

// DataWidth implements Transcoder.
func (t *LowWeightTranscoder) DataWidth() int { return t.width }

// BusWidth returns the coded bus width.
func (t *LowWeightTranscoder) BusWidth() int { return t.wires }

// WeightBudget returns the per-cycle transition budget — the sum of the
// group radii; no cycle toggles more wires than this (property-tested).
func (t *LowWeightTranscoder) WeightBudget() int { return t.budget }

// Stages returns the total datapath size over all groups in normalized
// 32-bit adder stages — the circuit model's entries parameter.
func (t *LowWeightTranscoder) Stages() int { return t.stages }

// ConfigKey implements ConfigKeyer.
func (t *LowWeightTranscoder) ConfigKey() string {
	return fmt.Sprintf("lowweight-g%d+%d/w%d", t.groups, t.extra, t.width)
}

// NewEncoder implements Transcoder.
func (t *LowWeightTranscoder) NewEncoder() Encoder { return &lowWeightEncoder{t: t} }

// NewDecoder implements Transcoder.
func (t *LowWeightTranscoder) NewDecoder() Decoder { return &lowWeightDecoder{t: t} }

// gridOps mirrors the other enumerative coders: every group datapath
// switches every cycle.
func (t *LowWeightTranscoder) gridOps(cycles uint64) OpStats {
	return OpStats{
		Cycles:            cycles,
		CodeSends:         cycles,
		CounterIncrements: cycles * uint64(t.stages),
	}
}

// transition maps a data value to the full-bus transition vector: each
// group's sub-value unranked into its transition ball, placed at the
// group's wire offset.
func (t *LowWeightTranscoder) transition(v uint64) uint64 {
	var tv uint64
	for i := range t.grp {
		g := &t.grp[i]
		sub := (v >> g.shift) & uint64(bus.Mask(g.bits))
		tv |= ballUnrank(g.wires, sub) << g.off
	}
	return tv
}

type lowWeightEncoder struct {
	t      *LowWeightTranscoder
	state  uint64
	cycles uint64
}

func (e *lowWeightEncoder) Encode(v uint64) bus.Word {
	e.cycles++
	e.state ^= e.t.transition(v & uint64(bus.Mask(e.t.width)))
	return bus.Word(e.state)
}

func (e *lowWeightEncoder) BusWidth() int { return e.t.wires }
func (e *lowWeightEncoder) Reset()        { e.state, e.cycles = 0, 0 }
func (e *lowWeightEncoder) Ops() OpStats  { return e.t.gridOps(e.cycles) }

type lowWeightDecoder struct {
	t    *LowWeightTranscoder
	prev uint64
}

func (d *lowWeightDecoder) Decode(w bus.Word) uint64 {
	cur := uint64(w) & uint64(bus.Mask(d.t.wires))
	tv := d.prev ^ cur
	d.prev = cur
	var v uint64
	for i := range d.t.grp {
		g := &d.t.grp[i]
		gtv := (tv >> g.off) & uint64(bus.Mask(g.wires))
		v |= ballRank(g.wires, gtv) << g.shift
	}
	return v
}

func (d *lowWeightDecoder) Reset() { d.prev = 0 }

// lowWeightCodedMeter materializes the prefix-XOR state stream and meters
// it lane-parallel — the grid fast path.
func lowWeightCodedMeter(t *LowWeightTranscoder, trace []uint64) *bus.Meter {
	mask := uint64(bus.Mask(t.width))
	coded := make([]uint64, len(trace))
	cache := newUnrankCache()
	var state uint64
	for i, v := range trace {
		v &= mask
		img, ok := cache.slot(v)
		if !ok {
			*img = t.transition(v)
		}
		state ^= *img
		coded[i] = state
	}
	return bus.NewSlicedTrace(t.wires, coded).MeterLite()
}
