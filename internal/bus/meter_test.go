package bus

import (
	"math/rand"
	"testing"
)

// referenceMeter is the oracle the meter's word-parallel paths are
// differenced against. It shares no code with the package: it reads each
// wire's level bit by bit and counts straight from the paper's
// definitions — λ_n (eq. 2) is one per cycle wire n changes, and ψ_n is
// eq. 3 taken literally, |(W_n − W_{n+1}) − (W'_n − W'_{n+1})| over the
// levels before (W) and after (W') the cycle.
type referenceMeter struct {
	width       int
	prev        []int // per-wire level of the last recorded word
	started     bool
	cycles      uint64
	transitions uint64
	couplings   uint64
	perWire     []uint64
	perPair     []uint64
}

func newReferenceMeter(width int) *referenceMeter {
	return &referenceMeter{width: width, prev: make([]int, width),
		perWire: make([]uint64, width), perPair: make([]uint64, max(width-1, 0))}
}

func (m *referenceMeter) Record(w Word) {
	cur := make([]int, m.width)
	for n := range cur {
		cur[n] = int(w>>uint(n)) & 1
	}
	m.cycles++
	if !m.started {
		m.started = true
		m.prev = cur
		return
	}
	for n := 0; n < m.width; n++ {
		if m.prev[n] != cur[n] {
			m.perWire[n]++
			m.transitions++
		}
	}
	for n := 0; n+1 < m.width; n++ {
		d := (m.prev[n] - m.prev[n+1]) - (cur[n] - cur[n+1])
		psi := uint64(max(d, -d))
		m.perPair[n] += psi
		m.couplings += psi
	}
	m.prev = cur
}

// state reassembles the last recorded word from the wire levels.
func (m *referenceMeter) state() Word {
	var w Word
	for n, b := range m.prev {
		w |= Word(b) << uint(n)
	}
	return w
}

func randomTrace(t *testing.T, n, width int, seed int64) []Word {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]Word, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = Word(rng.Uint64()) & Mask(width)
		case 1:
			// sparse: one wire
			out[i] = 1 << rng.Intn(width)
		case 2:
			if i > 0 {
				out[i] = out[i-1] // quiet cycle
			}
		default:
			out[i] = Word(rng.Uint64()>>32) & Mask(width)
		}
	}
	return out
}

// TestMeterMatchesReference differences the optimized Record and the batch
// paths, and the per-cycle TransitionCount and CouplingCount, against the
// bit-serial oracle on every statistic, across widths.
func TestMeterMatchesReference(t *testing.T) {
	for _, width := range []int{1, 2, 7, 31, 32, 33, 63, 64} {
		trace := randomTrace(t, 2000, width, int64(width)*7919)
		ref := newReferenceMeter(width)
		rec := NewMeter(width)
		batch := NewMeter(width)
		lite := NewMeterLite(width)
		for i, w := range trace {
			prevT, prevC := ref.transitions, ref.couplings
			ref.Record(w)
			rec.Record(w)
			if i == 0 {
				continue
			}
			if got := TransitionCount(trace[i-1], w, width); uint64(got) != ref.transitions-prevT {
				t.Fatalf("width %d cycle %d: TransitionCount %d, reference %d", width, i, got, ref.transitions-prevT)
			}
			if got := CouplingCount(trace[i-1], w, width); uint64(got) != ref.couplings-prevC {
				t.Fatalf("width %d cycle %d: CouplingCount %d, reference %d", width, i, got, ref.couplings-prevC)
			}
		}
		batch.RecordTrace(trace)
		lite.RecordTrace(trace)
		for name, m := range map[string]*Meter{"Record": rec, "RecordTrace": batch, "lite": lite} {
			if m.Cycles() != ref.cycles || m.Transitions() != ref.transitions || m.Couplings() != ref.couplings {
				t.Fatalf("width %d %s: got (%d, %d, %d), reference (%d, %d, %d)",
					width, name, m.Cycles(), m.Transitions(), m.Couplings(), ref.cycles, ref.transitions, ref.couplings)
			}
			if m.State() != ref.state() {
				t.Fatalf("width %d %s: state %#x != reference %#x", width, name, m.State(), ref.state())
			}
		}
		for n := 0; n < width; n++ {
			if got := rec.WireTransitions(n); got != ref.perWire[n] {
				t.Fatalf("width %d wire %d: Record %d != reference %d", width, n, got, ref.perWire[n])
			}
			if got := batch.WireTransitions(n); got != ref.perWire[n] {
				t.Fatalf("width %d wire %d: RecordTrace %d != reference %d", width, n, got, ref.perWire[n])
			}
		}
		for n := 0; n < width-1; n++ {
			if got := rec.PairCouplings(n); got != ref.perPair[n] {
				t.Fatalf("width %d pair %d: Record %d != reference %d", width, n, got, ref.perPair[n])
			}
			if got := batch.PairCouplings(n); got != ref.perPair[n] {
				t.Fatalf("width %d pair %d: RecordTrace %d != reference %d", width, n, got, ref.perPair[n])
			}
		}
	}
}

// TestMeterRecordValuesMatchesRecordTrace covers the value-stream paths:
// []uint64 with high bits that must be masked off, and the []uint32 form
// workload traces are held in.
func TestMeterRecordValuesMatchesRecordTrace(t *testing.T) {
	trace := randomTrace(t, 500, 32, 99)
	vals := make([]uint64, len(trace))
	vals32 := make([]uint32, len(trace))
	for i, w := range trace {
		vals[i] = uint64(w) | 0xFF00000000000000
		vals32[i] = uint32(w)
	}
	for _, width := range []int{32, 20} {
		a := NewMeter(width)
		b := NewMeter(width)
		c := NewMeterLite(width)
		a.RecordTrace(trace)
		RecordValues(b, vals)
		RecordValues(c, vals32)
		for _, m := range []*Meter{b, c} {
			if a.Transitions() != m.Transitions() || a.Couplings() != m.Couplings() || a.Cycles() != m.Cycles() {
				t.Fatalf("width %d: RecordValues diverged: (%d,%d,%d) != (%d,%d,%d)", width,
					m.Cycles(), m.Transitions(), m.Couplings(), a.Cycles(), a.Transitions(), a.Couplings())
			}
		}
	}
}

// TestMeterLitePanics pins the contract that histogram accessors reject
// lite meters loudly instead of returning zeros.
func TestMeterLitePanics(t *testing.T) {
	m := NewMeterLite(8)
	m.Record(0)
	m.Record(3)
	for name, f := range map[string]func(){
		"WireTransitions": func() { m.WireTransitions(0) },
		"PairCouplings":   func() { m.PairCouplings(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a lite meter did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestMeterRecordAllocs is the allocation regression guard for the
// per-cycle and batch hot paths: 0 allocs/op.
func TestMeterRecordAllocs(t *testing.T) {
	trace := randomTrace(t, 256, 32, 7)
	m := NewMeter(32)
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		m.Record(trace[i&255])
		i++
	}); allocs != 0 {
		t.Fatalf("Meter.Record allocates %v times per op, want 0", allocs)
	}
	lite := NewMeterLite(32)
	if allocs := testing.AllocsPerRun(100, func() {
		lite.RecordTrace(trace)
	}); allocs != 0 {
		t.Fatalf("Meter.RecordTrace allocates %v times per op, want 0", allocs)
	}
}

// TestMeterStreamMatchesBatch is the property test for the incremental
// recording front-end: streaming each word through MeterStream.Record
// (with flushes interleaved at arbitrary points) must equal the buffered
// Record(0)+RecordTrace(buf) path on every statistic, for lite and
// histogram meters across widths.
func TestMeterStreamMatchesBatch(t *testing.T) {
	for _, width := range []int{1, 2, 33, 64} {
		for _, detailed := range []bool{false, true} {
			trace := randomTrace(t, 3000, width, int64(width)*104729+boolSeed(detailed))
			mk := NewMeterLite
			if detailed {
				mk = NewMeter
			}
			batch := mk(width)
			batch.Record(0)
			batch.RecordTrace(trace)

			streamed := mk(width)
			st := streamed.Stream()
			st.Record(0)
			for i, w := range trace {
				st.Record(w)
				if i%997 == 0 {
					st.Flush() // the stream must survive interleaved flushes
				}
			}
			st.Flush()

			if streamed.Cycles() != batch.Cycles() ||
				streamed.Transitions() != batch.Transitions() ||
				streamed.Couplings() != batch.Couplings() ||
				streamed.State() != batch.State() {
				t.Fatalf("width %d detailed=%v: stream (%d,%d,%d,%#x) != batch (%d,%d,%d,%#x)",
					width, detailed,
					streamed.Cycles(), streamed.Transitions(), streamed.Couplings(), streamed.State(),
					batch.Cycles(), batch.Transitions(), batch.Couplings(), batch.State())
			}
			if detailed {
				for n := 0; n < width; n++ {
					if streamed.WireTransitions(n) != batch.WireTransitions(n) {
						t.Fatalf("width %d wire %d: stream %d != batch %d",
							width, n, streamed.WireTransitions(n), batch.WireTransitions(n))
					}
				}
				for n := 0; n < width-1; n++ {
					if streamed.PairCouplings(n) != batch.PairCouplings(n) {
						t.Fatalf("width %d pair %d: stream %d != batch %d",
							width, n, streamed.PairCouplings(n), batch.PairCouplings(n))
					}
				}
			}
		}
	}
}

func boolSeed(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestMeterStreamContinuesMeter pins that a stream picks up the meter's
// current bus state (no phantom transition at the splice point) and that
// the meter observes the streamed cycles only after Flush.
func TestMeterStreamContinuesMeter(t *testing.T) {
	m := NewMeterLite(8)
	m.Record(0)
	m.Record(0xFF)
	st := m.Stream()
	st.Record(0xFF) // quiet cycle across the splice: must cost nothing
	st.Record(0x00)
	if m.Cycles() != 2 {
		t.Fatalf("meter observed streamed cycles before Flush: %d cycles", m.Cycles())
	}
	st.Flush()
	want := NewMeterLite(8)
	for _, w := range []Word{0, 0xFF, 0xFF, 0} {
		want.Record(w)
	}
	if m.Cycles() != want.Cycles() || m.Transitions() != want.Transitions() || m.Couplings() != want.Couplings() {
		t.Fatalf("spliced stream (%d,%d,%d) != contiguous (%d,%d,%d)",
			m.Cycles(), m.Transitions(), m.Couplings(), want.Cycles(), want.Transitions(), want.Couplings())
	}
}

// TestMeterStreamAddBlockMatchesReference differences AddBlock against
// the bit-serial oracle. Each random stream is split into random blocks of
// length 0, 1, a few, or long runs past the staging chunk; each block is
// either Recorded word by word or folded in with AddBlock, whose counts
// are the per-cycle sums of referenceMeter over the block. At random
// Flush points, and at the end, the meter's cycles, Σ counts and bus
// state must equal the oracle's over the same prefix.
func TestMeterStreamAddBlockMatchesReference(t *testing.T) {
	for _, width := range []int{1, 2, 7, 32, 33, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*7877 + int64(width)))
			trace := randomTrace(t, 4000, width, seed*31+int64(width))

			// Oracle prefix statistics: after[i] holds the totals once
			// trace[:i+1] has been recorded.
			type totals struct{ cycles, transitions, couplings uint64 }
			ref := newReferenceMeter(width)
			after := make([]totals, len(trace))
			states := make([]Word, len(trace))
			for i, w := range trace {
				ref.Record(w)
				after[i] = totals{ref.cycles, ref.transitions, ref.couplings}
				states[i] = ref.state()
			}

			m := NewMeterLite(width)
			st := m.Stream()
			st.Record(trace[0]) // AddBlock needs the power-up state pinned
			pos, blocks := 1, 0
			for pos < len(trace) {
				var n int
				switch rng.Intn(4) {
				case 0:
					n = 0
				case 1:
					n = 1
				case 2:
					n = 2 + rng.Intn(20)
				default:
					n = streamChunk + rng.Intn(4*streamChunk)
				}
				n = min(n, len(trace)-pos)
				block := trace[pos : pos+n]
				if rng.Intn(2) == 0 {
					for _, w := range block {
						st.Record(w)
					}
				} else {
					prev := after[pos-1]
					cycles, trans, coup := uint64(0), uint64(0), uint64(0)
					last := Word(rng.Uint64()) // an empty block's last word is ignored
					if n > 0 {
						end := after[pos+n-1]
						cycles, trans, coup = end.cycles-prev.cycles, end.transitions-prev.transitions, end.couplings-prev.couplings
						// Bits above the bus width must be masked off.
						last = block[n-1] | ^Mask(width)
					}
					st.AddBlock(cycles, trans, coup, last)
				}
				pos += n
				blocks++
				if rng.Intn(5) == 0 || pos == len(trace) {
					st.Flush()
					want := after[pos-1]
					if m.Cycles() != want.cycles || m.Transitions() != want.transitions ||
						m.Couplings() != want.couplings || m.State() != states[pos-1] {
						t.Fatalf("width %d seed %d after %d blocks (%d words): meter (%d, %d, %d, %#x), reference (%d, %d, %d, %#x)",
							width, seed, blocks, pos, m.Cycles(), m.Transitions(), m.Couplings(), m.State(),
							want.cycles, want.transitions, want.couplings, states[pos-1])
					}
				}
			}
		}
	}
}

// TestMeterStreamAddBlockPreconditions: AddBlock refuses a histogram
// meter (it cannot split a block's counts across wires) and a stream with
// no recorded word yet (the block's first transition would have no
// starting state), while an empty block is always a no-op.
func TestMeterStreamAddBlockPreconditions(t *testing.T) {
	panics := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return false
	}
	fresh := NewMeterLite(8).Stream()
	if !panics(func() { fresh.AddBlock(3, 2, 1, 0xF) }) {
		t.Error("AddBlock before any recorded word did not panic")
	}
	fresh.AddBlock(0, 0, 0, 0xF)
	fresh.Flush()
	if !panics(func() { st := NewMeter(8).Stream(); st.Record(1); st.AddBlock(1, 1, 1, 0) }) {
		t.Error("AddBlock on a histogram meter did not panic")
	}
}

// TestMeterCloneDetaches verifies Clone copies every statistic and that
// mutating the original afterwards leaves the clone untouched.
func TestMeterCloneDetaches(t *testing.T) {
	m := NewMeter(8)
	m.RecordTrace(randomTrace(t, 200, 8, 11))
	c := m.Clone()
	wantCycles, wantTrans, wantCoup := m.Cycles(), m.Transitions(), m.Couplings()
	wantWire0, wantPair0 := m.WireTransitions(0), m.PairCouplings(0)
	m.RecordTrace(randomTrace(t, 200, 8, 13))
	if c.Cycles() != wantCycles || c.Transitions() != wantTrans || c.Couplings() != wantCoup {
		t.Fatalf("clone mutated by original: (%d,%d,%d) != (%d,%d,%d)",
			c.Cycles(), c.Transitions(), c.Couplings(), wantCycles, wantTrans, wantCoup)
	}
	if c.WireTransitions(0) != wantWire0 || c.PairCouplings(0) != wantPair0 {
		t.Fatalf("clone histograms share storage with original")
	}
}

// TestMeterStreamAllocs: the streaming front-end is a hot-loop citizen —
// 0 allocs/op for construction, Record and Flush.
func TestMeterStreamAllocs(t *testing.T) {
	trace := randomTrace(t, 256, 32, 17)
	m := NewMeterLite(32)
	if allocs := testing.AllocsPerRun(100, func() {
		st := m.Stream()
		for _, w := range trace {
			st.Record(w)
		}
		st.Flush()
	}); allocs != 0 {
		t.Fatalf("MeterStream path allocates %v times per op, want 0", allocs)
	}
}
