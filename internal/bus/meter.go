package bus

import "fmt"

// Meter accumulates the paper's activity totals over a stream of bus
// states. Feed it the absolute wire state each cycle with Record (or a
// batch with RecordValues); it tracks Σλ_n (self transitions, eq. 2) and
// Σψ_n (coupling events, eq. 3), counted by Activity, so that the
// Λ-weighted energy cost of the trace can be computed for any wire length
// and technology.
//
// The first recorded word establishes the initial bus state and expends no
// energy.
type Meter struct {
	width    int
	mask     Word // low width bits
	pairMask Word // low width-1 bits: valid adjacent pairs
	prev     Word
	started  bool

	cycles      uint64
	transitions uint64 // Σ_n λ_n
	couplings   uint64 // Σ_n ψ_n
}

// NewMeterLite returns a Meter for a bus of the given width
// (1..MaxWidth). It panics on any other width.
func NewMeterLite(width int) *Meter {
	if width < 1 || width > MaxWidth {
		panic(fmt.Sprintf("bus: invalid meter width %d", width))
	}
	return &Meter{width: width, mask: Mask(width), pairMask: Mask(width - 1)}
}

// Width returns the bus width the meter accounts for.
func (m *Meter) Width() int { return m.width }

// Record accounts one cycle in which the bus settles to state w.
func (m *Meter) Record(w Word) {
	w &= m.mask
	if !m.started {
		m.started = true
		m.prev = w
		m.cycles++
		return
	}
	tr, c := Activity(m.prev, m.prev^w, m.pairMask)
	m.transitions += tr
	m.couplings += c
	m.prev = w
	m.cycles++
}

// Value is the element type of a bus-word or raw data-value stream:
// uint32 for the workload traces (every bus of the simulated machine is
// 32 bits wide), uint64 (or Word) for wider streams.
type Value interface{ ~uint32 | ~uint64 }

// RecordValues accounts one cycle per element of values, each masked to
// the bus width: equivalent to calling Record on each, with the Σ totals
// accumulated in locals and flushed once.
func RecordValues[T Value](m *Meter, vals []T) {
	if len(vals) == 0 {
		return
	}
	i := 0
	if !m.started {
		m.started = true
		m.prev = Word(vals[0]) & m.mask
		i = 1
	}
	prev, tr, c := sumActivity(m.prev, vals[i:], m.mask, m.pairMask)
	m.transitions += tr
	m.couplings += c
	m.prev = prev
	m.cycles += uint64(len(vals))
}

// sumActivity is the batch loop of RecordValues and MeterStream.drain: it
// moves the bus from state prev through vals, each masked to mask, and
// returns the last state with the Σ Activity counts of the moves.
func sumActivity[T Value](prev Word, vals []T, mask, pairMask Word) (last Word, transitions, couplings uint64) {
	for _, raw := range vals {
		w := Word(raw) & mask
		tr, c := Activity(prev, prev^w, pairMask)
		transitions += tr
		couplings += c
		prev = w
	}
	return prev, transitions, couplings
}

// streamChunk is the MeterStream staging capacity: large enough to
// amortize the batch accounting loop, small enough to stay resident in L1
// (2KB) and keep the stream stack-allocatable.
const streamChunk = 256

// MeterStream is the incremental batch-recording front-end of a Meter: a
// producer can meter each bus word as it is generated — no O(n) scratch
// trace buffer, no second pass — at RecordValues' per-cycle cost. Record
// itself is a tiny inlinable append into a fixed-size staging chunk;
// every streamChunk words the chunk is drained through RecordValues'
// batch loop. Obtain one with Stream, Record words through it, and Flush
// to fold the accumulated statistics back into the Meter.
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
// is pinned.
func (s *MeterStream) AddBlock(cycles, transitions, couplings uint64, last Word) {
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

// drain accounts the staged words with RecordValues' batch loop.
func (s *MeterStream) drain() {
	if s.n == 0 {
		return
	}
	vals := s.buf[:s.n]
	s.n = 0
	s.cycles += uint64(len(vals))
	if !s.started {
		s.started = true
		s.prev = vals[0] & s.mask
		vals = vals[1:]
	}
	prev, tr, c := sumActivity(s.prev, vals, s.mask, s.pairMask)
	s.prev = prev
	s.transitions += tr
	s.couplings += c
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

// Clone returns an independent copy of the meter. Cloning detaches a
// measurement from a Meter that will be Reset and reused (as
// coding.Evaluator does with its coded-bus meter).
func (m *Meter) Clone() *Meter {
	c := *m
	return &c
}

// Cycles returns the number of recorded cycles (including the first).
func (m *Meter) Cycles() uint64 { return m.cycles }

// Transitions returns Σ_n λ_n over the recorded trace.
func (m *Meter) Transitions() uint64 { return m.transitions }

// Couplings returns Σ_n ψ_n over the recorded trace.
func (m *Meter) Couplings() uint64 { return m.couplings }

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
}
