package bus

import (
	"fmt"
	"math/bits"
)

// Meter accumulates the paper's per-wire activity statistics over a stream
// of bus states. Feed it the absolute wire state each cycle with Record
// (or a batch with RecordTrace); it tracks Σλ_n (self transitions, eq. 2)
// and Σψ_n (coupling events, eq. 3) so that the Λ-weighted energy cost of
// the trace can be computed for any wire length and technology.
//
// The first recorded word establishes the initial bus state and expends no
// energy.
//
// NewMeter also collects per-wire and per-pair histograms; NewMeterLite
// keeps only the Σ totals, which is all the scheme sweeps consume, and
// makes Record a handful of word-parallel bit operations per cycle.
type Meter struct {
	width    int
	mask     Word // low width bits
	pairMask Word // low width-1 bits: valid adjacent pairs
	prev     Word
	started  bool

	cycles      uint64
	transitions uint64 // Σ_n λ_n
	couplings   uint64 // Σ_n ψ_n

	perWire []uint64 // λ_n per wire (len = width); nil for lite meters
	perPair []uint64 // ψ_n per adjacent pair (len = max(width-1, 0)); nil for lite meters
}

// NewMeter returns a Meter for a bus of the given width (1..MaxWidth),
// collecting per-wire and per-pair histograms alongside the Σ totals.
func NewMeter(width int) *Meter {
	m := NewMeterLite(width)
	m.perWire = make([]uint64, width)
	m.perPair = make([]uint64, width-1)
	return m
}

// NewMeterLite returns a Meter that accumulates only the Σλ/Σψ totals.
// WireTransitions and PairCouplings panic on a lite meter; everything
// else behaves identically, at a fraction of the per-cycle cost.
func NewMeterLite(width int) *Meter {
	if width < 1 || width > MaxWidth {
		panic(fmt.Sprintf("bus: invalid meter width %d", width))
	}
	return &Meter{width: width, mask: Mask(width), pairMask: Mask(width - 1)}
}

// Width returns the bus width the meter accounts for.
func (m *Meter) Width() int { return m.width }

// Detailed reports whether the meter collects per-wire and per-pair
// histograms (NewMeter) or only Σ totals (NewMeterLite).
func (m *Meter) Detailed() bool { return m.perWire != nil }

// Record accounts one cycle in which the bus settles to state w.
func (m *Meter) Record(w Word) {
	w &= m.mask
	if !m.started {
		m.started = true
		m.prev = w
		m.cycles++
		return
	}
	if t := m.prev ^ w; t != 0 {
		m.account(m.prev, w, t)
	}
	m.prev = w
	m.cycles++
}

// account folds one non-trivial transition into the statistics. prev and
// cur are already masked and differ by t = prev^cur.
func (m *Meter) account(prev, cur, t Word) {
	m.transitions += uint64(bits.OnesCount64(uint64(t)))
	// The eq. (3) pair classification of CouplingPairs, with the masks
	// hoisted out of the per-cycle path.
	rising := cur &^ prev
	falling := prev &^ cur
	single := (t ^ (t >> 1)) & m.pairMask
	opposite := ((rising & (falling >> 1)) | (falling & (rising >> 1))) & m.pairMask
	m.couplings += uint64(bits.OnesCount64(uint64(single))) + 2*uint64(bits.OnesCount64(uint64(opposite)))
	if m.perWire == nil {
		return
	}
	// Sparse histogram update: visit only the toggled wires and coupled
	// pairs instead of shifting through every bit position below them.
	for v := uint64(t); v != 0; v &= v - 1 {
		m.perWire[bits.TrailingZeros64(v)]++
	}
	for v := uint64(single); v != 0; v &= v - 1 {
		m.perPair[bits.TrailingZeros64(v)]++
	}
	for v := uint64(opposite); v != 0; v &= v - 1 {
		m.perPair[bits.TrailingZeros64(v)] += 2
	}
}

// RecordTrace accounts one cycle per element of trace, equivalent to
// calling Record on each but without the per-cycle call and field-access
// overhead — the batch fast path for measuring whole traces.
func (m *Meter) RecordTrace(trace []Word) { recordAll(m, trace) }

// Value is the element type of a raw data-value stream: uint32 for the
// workload traces (every bus of the simulated machine is 32 bits wide),
// uint64 for wider synthetic streams.
type Value interface{ ~uint32 | ~uint64 }

// RecordValues is RecordTrace for raw data-value streams; each value is
// masked to the bus width.
func RecordValues[T Value](m *Meter, values []T) { recordAll(m, values) }

// recordAll is the shared batch recording core. Σ totals accumulate in
// locals and flush once; histogram meters fall back to the per-cycle
// account path only on cycles that actually moved wires.
func recordAll[T Value](m *Meter, vals []T) {
	if len(vals) == 0 {
		return
	}
	i := 0
	if !m.started {
		m.started = true
		m.prev = Word(vals[0]) & m.mask
		i = 1
	}
	prev, mask, pairMask := m.prev, m.mask, m.pairMask
	var transitions, couplings uint64
	if m.perWire == nil {
		for _, raw := range vals[i:] {
			w := Word(raw) & mask
			t := prev ^ w
			if t != 0 {
				transitions += uint64(bits.OnesCount64(uint64(t)))
				rising := w &^ prev
				falling := prev &^ w
				single := (t ^ (t >> 1)) & pairMask
				opposite := ((rising & (falling >> 1)) | (falling & (rising >> 1))) & pairMask
				couplings += uint64(bits.OnesCount64(uint64(single))) + 2*uint64(bits.OnesCount64(uint64(opposite)))
			}
			prev = w
		}
		m.transitions += transitions
		m.couplings += couplings
	} else {
		for _, raw := range vals[i:] {
			w := Word(raw) & mask
			if t := prev ^ w; t != 0 {
				m.account(prev, w, t)
			}
			prev = w
		}
	}
	m.prev = prev
	m.cycles += uint64(len(vals))
}

// streamChunk is the MeterStream staging capacity: large enough to
// amortize the batch accounting loop, small enough to stay resident in L1
// (2KB) and keep the stream stack-allocatable.
const streamChunk = 256

// MeterStream is the incremental batch-recording front-end of a Meter: a
// producer can meter each bus word as it is generated — no O(n) scratch
// trace buffer, no second pass — at RecordTrace's per-cycle cost. Record
// itself is a tiny inlinable append into a fixed-size staging chunk;
// every streamChunk words the chunk is drained through the same hoisted
// word-parallel loop as the RecordTrace fast path. Obtain one with
// Stream, Record words through it, and Flush to fold the accumulated
// statistics back into the Meter.
//
// A stream is a plain value (no heap allocation) and must not be copied
// while in use. Until Flush, the Meter itself does not observe the
// streamed cycles; interleaving direct Meter.Record calls with an
// unflushed stream is unsupported.
type MeterStream struct {
	m              *Meter
	mask, pairMask Word
	prev           Word
	started        bool
	detailed       bool
	cycles         uint64
	transitions    uint64
	couplings      uint64
	n              int
	buf            [streamChunk]Word
}

// Stream returns an incremental recorder continuing from the meter's
// current state.
func (m *Meter) Stream() MeterStream {
	var s MeterStream
	m.StreamInto(&s)
	return s
}

// StreamInto rebinds an existing MeterStream to m in place, continuing
// from the meter's current state. It exists for callers that keep the
// stream (whose chunk buffer makes it a large value) as long-lived
// scratch instead of building a fresh one per trace; any staged or
// accumulated state from a previous binding is discarded, so the previous
// use must have ended with Flush.
func (m *Meter) StreamInto(s *MeterStream) {
	s.m = m
	s.mask = m.mask
	s.pairMask = m.pairMask
	s.prev = m.prev
	s.started = m.started
	s.detailed = m.perWire != nil
	s.cycles, s.transitions, s.couplings = 0, 0, 0
	s.n = 0
}

// Record accounts one cycle in which the bus settles to state w,
// equivalent to Meter.Record once the stream is flushed.
func (s *MeterStream) Record(w Word) {
	if s.n == streamChunk {
		s.drain()
	}
	s.buf[s.n] = w
	s.n++
}

// AddBlock folds a pre-accounted run of cycles into the stream: the
// caller observed `cycles` bus states ending in `last` and already
// summed their Σ transition and coupling counts with the meter's exact
// arithmetic (stateful encoders get these for free from their eq. (3)
// cost evaluations). The first of those states must have been diffed
// against the stream's current last word — which the encoders'
// channel state equals by construction — and at least one word must
// have been recorded before the first AddBlock, so the power-up state
// is pinned. Histogram (detailed) meters cannot accept summary blocks.
func (s *MeterStream) AddBlock(cycles, transitions, couplings uint64, last Word) {
	if s.detailed {
		panic("bus: AddBlock on a histogram meter stream")
	}
	if cycles == 0 {
		// An empty block is equivalent to zero Records.
		return
	}
	s.drain()
	if !s.started {
		panic("bus: AddBlock before any recorded word")
	}
	s.cycles += cycles
	s.transitions += transitions
	s.couplings += couplings
	s.prev = last & s.mask
}

// drain accounts the staged words with the same local-accumulator batch
// arithmetic as Meter.recordAll.
func (s *MeterStream) drain() {
	if s.n == 0 {
		return
	}
	vals := s.buf[:s.n]
	s.n = 0
	s.cycles += uint64(len(vals))
	i := 0
	if !s.started {
		s.started = true
		s.prev = vals[0] & s.mask
		i = 1
	}
	prev := s.prev
	if s.detailed {
		// Histogram meters reuse the shared account path, which also
		// accumulates the Σ totals directly on the meter — the stream's
		// own Σ accumulators stay zero, so Flush never double-counts.
		for _, w := range vals[i:] {
			w &= s.mask
			if t := prev ^ w; t != 0 {
				s.m.account(prev, w, t)
			}
			prev = w
		}
		s.prev = prev
		return
	}
	mask, pairMask := s.mask, s.pairMask
	var transitions, couplings uint64
	for _, w := range vals[i:] {
		w &= mask
		if t := prev ^ w; t != 0 {
			transitions += uint64(bits.OnesCount64(uint64(t)))
			rising := w &^ prev
			falling := prev &^ w
			single := (t ^ (t >> 1)) & pairMask
			opposite := ((rising & (falling >> 1)) | (falling & (rising >> 1))) & pairMask
			couplings += uint64(bits.OnesCount64(uint64(single))) + 2*uint64(bits.OnesCount64(uint64(opposite)))
		}
		prev = w
	}
	s.prev = prev
	s.transitions += transitions
	s.couplings += couplings
}

// Flush drains the staging chunk and folds the streamed statistics into
// the Meter. The stream remains usable: further Record calls continue
// from the flushed state.
func (s *MeterStream) Flush() {
	s.drain()
	m := s.m
	m.transitions += s.transitions
	m.couplings += s.couplings
	m.cycles += s.cycles
	m.prev = s.prev
	m.started = s.started
	s.cycles, s.transitions, s.couplings = 0, 0, 0
}

// Clone returns an independent copy of the meter, histograms included.
// Cloning detaches a measurement from a Meter that will be Reset and
// reused (as coding.Evaluator does with its coded-bus meter).
func (m *Meter) Clone() *Meter {
	c := *m
	if m.perWire != nil {
		c.perWire = append([]uint64(nil), m.perWire...)
		c.perPair = append([]uint64(nil), m.perPair...)
	}
	return &c
}

// Cycles returns the number of recorded cycles (including the first).
func (m *Meter) Cycles() uint64 { return m.cycles }

// Transitions returns Σ_n λ_n over the recorded trace.
func (m *Meter) Transitions() uint64 { return m.transitions }

// Couplings returns Σ_n ψ_n over the recorded trace.
func (m *Meter) Couplings() uint64 { return m.couplings }

// WireTransitions returns λ_n for wire n. It panics on a lite meter.
func (m *Meter) WireTransitions(n int) uint64 {
	if m.perWire == nil {
		panic("bus: WireTransitions on a lite meter (use NewMeter for histograms)")
	}
	return m.perWire[n]
}

// PairCouplings returns ψ_n for the adjacent pair (n, n+1). It panics on
// a lite meter.
func (m *Meter) PairCouplings(n int) uint64 {
	if m.perPair == nil {
		panic("bus: PairCouplings on a lite meter (use NewMeter for histograms)")
	}
	return m.perPair[n]
}

// Cost returns the Λ-weighted activity Σλ + Λ·Σψ of the recorded trace —
// the quantity that, multiplied by the per-unit wire energy and the bus
// length, yields the trace's wire energy (eq. 1).
func (m *Meter) Cost(lambda float64) float64 {
	return float64(m.transitions) + lambda*float64(m.couplings)
}

// CostPerCycle returns Cost(lambda) normalized by the number of
// energy-expending cycles (cycles - 1); it returns 0 for traces shorter
// than two cycles.
func (m *Meter) CostPerCycle(lambda float64) float64 {
	if m.cycles < 2 {
		return 0
	}
	return m.Cost(lambda) / float64(m.cycles-1)
}

// State returns the current (most recently recorded) bus state.
func (m *Meter) State() Word { return m.prev }

// Reset clears all accumulated statistics and the initial-state latch.
func (m *Meter) Reset() {
	m.started = false
	m.prev = 0
	m.cycles = 0
	m.transitions = 0
	m.couplings = 0
	for i := range m.perWire {
		m.perWire[i] = 0
	}
	for i := range m.perPair {
		m.perPair[i] = 0
	}
}

// MeasureTrace runs a fresh meter over the given sequence of bus states
// and returns it. It is a convenience for one-shot accounting.
func MeasureTrace(width int, trace []Word) *Meter {
	m := NewMeter(width)
	m.RecordTrace(trace)
	return m
}
