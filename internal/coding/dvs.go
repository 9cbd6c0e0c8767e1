package coding

import (
	"fmt"
	"math/bits"

	"buspower/internal/bus"
)

// DVSTranscoder is the DVS-style variant of the transition-ball code,
// after Kaul et al.'s "DVS for On-Chip Bus Designs Based on Timing Error
// Correction" (arXiv:0710.4679; PAPERS.md #4): the coding headroom a
// bounded-transition code buys (fewer wires switching → faster, more
// predictable settling) is spent on supply-voltage scaling instead of
// being banked as energy directly, with Razor-style double-sampling
// latches detecting the occasional timing violation and triggering a
// retransmission. The wire protocol here is the vc transition code plus
// one detection wire that carries the running parity of the data stream:
// the receiver recomputes the decoded value's parity and compares, so any
// single-wire timing error in a cycle is caught without a side channel.
//
// Voltage scaling itself never touches the coded stream — at lower Vdd
// the same bits travel, just slower and cheaper — so the transcoder is
// fully deterministic and Vdd enters only the net-energy analysis
// (energy.Analysis.WithVoltageScale), which derates wire and circuit
// energy by s² and charges the detection latches plus the analytic
// retransmission rate. For the same reason VddPct is deliberately NOT
// part of the ConfigKey: two dvs schemes differing only in Vdd produce
// identical wire streams and must share one evaluation.
type DVSTranscoder struct {
	width  int // data bits
	extra  int // redundant wires (excluding the parity wire)
	wires  int // transition-coded wires = width + extra
	radius int // per-cycle transition bound on the coded wires
	stages int // normalized adder stages (rank/unrank + parity tree)
	vddPct int // operating supply, percent of nominal (analysis-side only)
	name   string
}

// NewDVS builds a DVS-style transcoder: a vc transition code with a
// parity detection wire, operated at vddPct percent of nominal supply.
func NewDVS(width, extra, vddPct int) (*DVSTranscoder, error) {
	if extra < 1 || extra > 8 {
		return nil, fmt.Errorf("coding: dvs extra wires %d outside [1, 8]", extra)
	}
	if vddPct < 50 || vddPct > 100 {
		return nil, fmt.Errorf("coding: dvs vdd %d%% outside [50, 100]", vddPct)
	}
	wires := width + extra
	// One parity wire rides above the coded wires.
	if err := enumCheck("dvs", width, wires+1); err != nil {
		return nil, err
	}
	r, err := ballRadius(wires, 1<<uint(width))
	if err != nil {
		return nil, err
	}
	return &DVSTranscoder{
		width:  width,
		extra:  extra,
		wires:  wires,
		radius: r,
		stages: enumStages(wires) + 1,
		vddPct: vddPct,
		name:   fmt.Sprintf("dvs-%d+%d", width, extra),
	}, nil
}

// Name implements Transcoder. Vdd is analysis-side only and excluded.
func (t *DVSTranscoder) Name() string { return t.name }

// DataWidth implements Transcoder.
func (t *DVSTranscoder) DataWidth() int { return t.width }

// BusWidth returns the coded bus width including the parity wire.
func (t *DVSTranscoder) BusWidth() int { return t.wires + 1 }

// Radius returns the per-cycle transition bound on the transition-coded
// wires; the parity wire may add one more toggle (property-tested as
// radius+1 over the whole bus).
func (t *DVSTranscoder) Radius() int { return t.radius }

// Stages returns the datapath size in normalized 32-bit adder stages.
func (t *DVSTranscoder) Stages() int { return t.stages }

// VoltageScale returns the operating supply as a fraction of nominal.
func (t *DVSTranscoder) VoltageScale() float64 { return float64(t.vddPct) / 100 }

// ConfigKey implements ConfigKeyer; Vdd is excluded because it does not
// change the wire stream (see the type comment).
func (t *DVSTranscoder) ConfigKey() string {
	return fmt.Sprintf("dvs+%d/w%d", t.extra, t.width)
}

// NewEncoder implements Transcoder.
func (t *DVSTranscoder) NewEncoder() Encoder {
	e := &dvsEncoder{t: t}
	e.cache.init()
	return e
}

// NewDecoder implements Transcoder.
func (t *DVSTranscoder) NewDecoder() Decoder { return &dvsDecoder{t: t} }

// gridOps mirrors the other enumerative coders.
func (t *DVSTranscoder) gridOps(cycles uint64) OpStats {
	return OpStats{
		Cycles:            cycles,
		CodeSends:         cycles,
		CounterIncrements: cycles * uint64(t.stages),
	}
}

// transition maps a value to its full-bus transition vector: the
// codeword on the coded wires, and a toggle of the parity wire (bit
// t.wires) for odd-weight values, which keeps that wire at the running
// parity of the data stream.
func (t *DVSTranscoder) transition(v uint64) uint64 {
	return ballUnrank(t.wires, v) ^ uint64(bits.OnesCount64(v)&1)<<uint(t.wires)
}

type dvsEncoder struct {
	t      *DVSTranscoder
	state  uint64
	cycles uint64
	cache  unrankCache
}

func (e *dvsEncoder) Encode(v uint64) bus.Word {
	e.cycles++
	v &= uint64(bus.Mask(e.t.width))
	img, ok := e.cache.slot(v)
	if !ok {
		*img = e.t.transition(v)
	}
	e.state ^= *img
	return bus.Word(e.state)
}

func (e *dvsEncoder) BusWidth() int { return e.t.wires + 1 }
func (e *dvsEncoder) Reset()        { e.state, e.cycles = 0, 0 }
func (e *dvsEncoder) Ops() OpStats  { return e.t.gridOps(e.cycles) }

type dvsDecoder struct {
	t    *DVSTranscoder
	prev uint64
}

func (d *dvsDecoder) Decode(w bus.Word) uint64 {
	cur := uint64(w) & uint64(bus.Mask(d.t.wires+1))
	diff := d.prev ^ cur
	d.prev = cur
	v := ballRank(d.t.wires, diff&uint64(bus.Mask(d.t.wires)))
	// Timing-error check: the parity wire toggles exactly when the decoded
	// value has odd weight. A mismatch means a wire sampled a stale value;
	// in hardware this raises the retransmit line — here (a deterministic
	// simulation) it can only mean encoder/decoder desync, so return a
	// value outside the data range to make verification fail loudly.
	if uint64(bits.OnesCount64(v)&1) != diff>>uint(d.t.wires) {
		return ^uint64(0)
	}
	return v
}

func (d *dvsDecoder) Reset() { d.prev = 0 }
