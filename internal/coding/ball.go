package coding

import (
	"fmt"
	"math/bits"

	"buspower/internal/bus"
)

// BallTranscoder is the one coder behind the four optimal-codebook
// families. Each k-bit group of the data value maps to the value-th word
// of the Hamming ball around 0 on the group's bits plus its extra wires
// (enumerative.go), and the families differ only in what is done with
// that image:
//
//   - optmem (Chee & Colbourn, arXiv:0712.2640; PAPERS.md #1) drives the
//     image as a fixed codeword. The codebook is the 2^k minimum-weight
//     words, the memoryless code with the fewest expected high wires; it
//     keeps no state, so a repeated value costs no transitions.
//   - vc (Valentini & Chiani, arXiv:2303.06409; PAPERS.md #2) XORs the
//     image onto the bus state, so every cycle toggles at most the ball
//     radius and value 0 toggles none; they prove this weight-ordered
//     transition mapping minimizes expected switching among fixed-rate
//     codes on n wires.
//   - lowweight (their practical low-weight codes, arXiv:2606.14203;
//     PAPERS.md #3) splits the bus into groups, each a small vc code on
//     its own bits and extra wires. The per-cycle bound grows to the sum
//     of the group radii, but the enumerative datapath shrinks from one
//     n-wide adder chain to g short ones. One group is vc.
//   - dvs (after Kaul et al., arXiv:0710.4679; PAPERS.md #4) is vc plus a
//     detection wire above the coded wires that carries the running
//     parity of the data, so the receiver catches any single-wire timing
//     error. Its supply rail never touches the coded stream: the same
//     bits travel at lower Vdd, so the rail reaches only VoltageScale
//     (energy.Analysis.WithVoltageScale) and is kept out of ConfigKey,
//     and dvs schemes differing only in Vdd share one evaluation.
type BallTranscoder struct {
	width      int         // data bits
	wires      int         // coded bus width, parity wire included
	groups     []ballGroup // contiguous blocks, low data bits first
	radius     int         // Σ group radii
	stages     int         // normalized adder stages (rank/unrank + parity tree)
	transition bool        // XOR the image onto the bus state (all but optmem)
	parity     bool        // top wire carries the running data parity (dvs)
	vddPct     int         // operating supply, percent of nominal (analysis only)
	name, key  string
}

// ballGroup is one contiguous block of the coded bus: data bits
// [shift, shift+bits) coded on wires [off, off+wires).
type ballGroup struct {
	bits   int
	shift  uint
	wires  int
	off    uint
	radius int
}

// NewOptMem builds an optimal-memoryless transcoder with the given data
// width and number of extra (redundant) wires.
func NewOptMem(width, extra int) (*BallTranscoder, error) {
	if extra < 1 || extra > 8 {
		return nil, fmt.Errorf("coding: optmem extra wires %d outside [1, 8]", extra)
	}
	return newBall("optmem", width, 1, extra, false, false)
}

// NewVC builds a Valentini–Chiani transition-coded transcoder.
func NewVC(width, extra int) (*BallTranscoder, error) {
	if extra < 1 || extra > 8 {
		return nil, fmt.Errorf("coding: vc extra wires %d outside [1, 8]", extra)
	}
	return newBall("vc", width, 1, extra, true, false)
}

// NewLowWeight builds a practical low-weight transcoder: width data bits
// split into groups contiguous blocks, each with extra redundant wires.
func NewLowWeight(width, groups, extra int) (*BallTranscoder, error) {
	if groups < 1 || groups > 8 {
		return nil, fmt.Errorf("coding: lowweight groups %d outside [1, 8]", groups)
	}
	if extra < 1 || extra > 4 {
		return nil, fmt.Errorf("coding: lowweight extra wires %d outside [1, 4]", extra)
	}
	if groups > width {
		return nil, fmt.Errorf("coding: lowweight cannot split %d bits into %d groups", width, groups)
	}
	t, err := newBall("lowweight", width, groups, extra, true, false)
	if err != nil {
		return nil, err
	}
	t.name = fmt.Sprintf("lowweight-%dg%d+%d", width, groups, extra)
	t.key = fmt.Sprintf("lowweight-g%d+%d/w%d", groups, extra, width)
	return t, nil
}

// NewDVS builds a DVS-style transcoder: a vc transition code with a
// parity detection wire, operated at vddPct percent of nominal supply.
func NewDVS(width, extra, vddPct int) (*BallTranscoder, error) {
	if extra < 1 || extra > 8 {
		return nil, fmt.Errorf("coding: dvs extra wires %d outside [1, 8]", extra)
	}
	if vddPct < 50 || vddPct > 100 {
		return nil, fmt.Errorf("coding: dvs vdd %d%% outside [50, 100]", vddPct)
	}
	t, err := newBall("dvs", width, 1, extra, true, true)
	if err != nil {
		return nil, err
	}
	t.vddPct = vddPct
	return t, nil
}

// newBall is the constructor core: width data bits split into groups
// contiguous blocks, the first width%groups of them one bit wider, each
// coded on its bits plus extra wires, and one parity wire on top when
// parity is set.
func newBall(kind string, width, groups, extra int, transition, parity bool) (*BallTranscoder, error) {
	wires := width + groups*extra
	if parity {
		wires++
	}
	if err := enumCheck(kind, width, wires); err != nil {
		return nil, err
	}
	t := &BallTranscoder{
		width:      width,
		wires:      wires,
		transition: transition,
		parity:     parity,
		vddPct:     100,
		name:       fmt.Sprintf("%s-%d+%d", kind, width, extra),
		key:        fmt.Sprintf("%s+%d/w%d", kind, extra, width),
	}
	if parity {
		t.stages = 1
	}
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
		t.groups = append(t.groups, ballGroup{bits: bits, shift: shift, wires: gw, off: off, radius: r})
		t.radius += r
		t.stages += enumStages(gw)
		shift += uint(bits)
		off += uint(gw)
	}
	return t, nil
}

// Name implements Transcoder. A dvs rail is analysis-side only and
// excluded.
func (t *BallTranscoder) Name() string { return t.name }

// DataWidth implements Transcoder.
func (t *BallTranscoder) DataWidth() int { return t.width }

// BusWidth returns the coded bus width, parity wire included.
func (t *BallTranscoder) BusWidth() int { return t.wires }

// ConfigKey implements ConfigKeyer. A dvs rail is excluded: it does not
// change the wire stream.
func (t *BallTranscoder) ConfigKey() string { return t.key }

// Radius returns the sum of the group ball radii: no codeword (optmem)
// or transition vector (the others) has more high coded wires.
func (t *BallTranscoder) Radius() int { return t.radius }

// ToggleBound returns the most wires any cycle can toggle over the whole
// bus (property-tested): twice the radius for memoryless codewords (the
// union of two words' high wires), the radius for transition codes, and
// one more for the parity wire.
func (t *BallTranscoder) ToggleBound() int {
	b := t.radius
	if !t.transition {
		b *= 2
	}
	if t.parity {
		b++
	}
	return b
}

// Stages returns the datapath size in normalized 32-bit adder stages
// over all groups, plus one for the parity tree — the circuit model's
// entries parameter.
func (t *BallTranscoder) Stages() int { return t.stages }

// Parity reports whether the bus carries a dvs parity detection wire.
func (t *BallTranscoder) Parity() bool { return t.parity }

// VoltageScale returns the operating supply as a fraction of nominal.
func (t *BallTranscoder) VoltageScale() float64 { return float64(t.vddPct) / 100 }

// image maps a data value to its full-bus image: each group's sub-value
// unranked into its ball at the group's wire offset, and for dvs a
// toggle of the parity wire for odd-weight values, which keeps that
// wire at the running parity of the data stream.
func (t *BallTranscoder) image(v uint64) uint64 {
	var img uint64
	for i := range t.groups {
		g := &t.groups[i]
		img |= ballUnrank(g.wires, (v>>g.shift)&uint64(bus.Mask(g.bits))) << g.off
	}
	if t.parity {
		img |= uint64(bits.OnesCount64(v)&1) << uint(t.wires-1)
	}
	return img
}

// NewEncoder implements Transcoder.
func (t *BallTranscoder) NewEncoder() Encoder {
	e := &ballEncoder{t: t}
	e.cache.init()
	return e
}

// NewDecoder implements Transcoder.
func (t *BallTranscoder) NewDecoder() Decoder { return &ballDecoder{t: t} }

type ballEncoder struct {
	t      *BallTranscoder
	state  uint64
	cycles uint64
	cache  unrankCache
}

func (e *ballEncoder) Encode(v uint64) bus.Word {
	e.cycles++
	v &= uint64(bus.Mask(e.t.width))
	img, ok := e.cache.slot(v)
	if !ok {
		*img = e.t.image(v)
	}
	if !e.t.transition {
		return bus.Word(*img)
	}
	e.state ^= *img
	return bus.Word(e.state)
}

func (e *ballEncoder) BusWidth() int { return e.t.wires }
func (e *ballEncoder) Reset()        { e.state, e.cycles = 0, 0 }

// Ops is purely formulaic: every group's adder chain switches on every
// cycle regardless of data (like the inversion coder's majority voter),
// so the unrank cache, which skips the walk in simulation only, leaves
// the modeled counts unchanged.
func (e *ballEncoder) Ops() OpStats {
	return OpStats{
		Cycles:            e.cycles,
		CodeSends:         e.cycles,
		CounterIncrements: e.cycles * uint64(e.t.stages),
	}
}

type ballDecoder struct {
	t    *BallTranscoder
	prev uint64
}

func (d *ballDecoder) Decode(w bus.Word) uint64 {
	img := uint64(w) & uint64(bus.Mask(d.t.wires))
	if d.t.transition {
		img, d.prev = d.prev^img, img
	}
	var v uint64
	for i := range d.t.groups {
		g := &d.t.groups[i]
		v |= ballRank(g.wires, (img>>g.off)&uint64(bus.Mask(g.wires))) << g.shift
	}
	// Timing-error check: the parity wire toggles exactly when the decoded
	// value has odd weight. A mismatch means a wire sampled a stale value;
	// in hardware this raises the retransmit line — here (a deterministic
	// simulation) it can only mean encoder/decoder desync, so return a
	// value outside the data range to make verification fail loudly.
	if d.t.parity && uint64(bits.OnesCount64(v)&1) != img>>uint(d.t.wires-1) {
		return ^uint64(0)
	}
	return v
}

func (d *ballDecoder) Reset() { d.prev = 0 }
