package bus

import (
	"encoding/binary"
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

// TestMeterMatchesReference differences Record and RecordValues, and
// the per-cycle Activity counts, against the bit-serial oracle across
// widths.
func TestMeterMatchesReference(t *testing.T) {
	for _, width := range []int{1, 2, 7, 31, 32, 33, 63, 64} {
		trace := randomTrace(t, 2000, width, int64(width)*7919)
		ref := newReferenceMeter(width)
		rec := NewMeterLite(width)
		batch := NewMeterLite(width)
		for i, w := range trace {
			prevT, prevC := ref.transitions, ref.couplings
			ref.Record(w)
			rec.Record(w)
			if i == 0 {
				continue
			}
			tr, c := Activity(trace[i-1], trace[i-1]^w, Mask(width-1))
			if tr != ref.transitions-prevT || c != ref.couplings-prevC {
				t.Fatalf("width %d cycle %d: Activity (%d, %d), reference (%d, %d)",
					width, i, tr, c, ref.transitions-prevT, ref.couplings-prevC)
			}
		}
		RecordValues(batch, trace)
		for name, m := range map[string]*Meter{"Record": rec, "RecordValues": batch} {
			if m.Cycles() != ref.cycles || m.Transitions() != ref.transitions || m.Couplings() != ref.couplings {
				t.Fatalf("width %d %s: got (%d, %d, %d), reference (%d, %d, %d)",
					width, name, m.Cycles(), m.Transitions(), m.Couplings(), ref.cycles, ref.transitions, ref.couplings)
			}
			if m.State() != ref.state() {
				t.Fatalf("width %d %s: state %#x != reference %#x", width, name, m.State(), ref.state())
			}
		}
	}
}

// TestMeterRecordValuesMatchesRecord covers the value-stream paths:
// []uint64 with high bits that must be masked off, and the []uint32 form
// workload traces are held in, against per-word Record.
func TestMeterRecordValuesMatchesRecord(t *testing.T) {
	trace := randomTrace(t, 500, 32, 99)
	vals := make([]uint64, len(trace))
	vals32 := make([]uint32, len(trace))
	for i, w := range trace {
		vals[i] = uint64(w) | 0xFF00000000000000
		vals32[i] = uint32(w)
	}
	for _, width := range []int{32, 20} {
		a := NewMeterLite(width)
		b := NewMeterLite(width)
		c := NewMeterLite(width)
		for _, w := range trace {
			a.Record(w)
		}
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

// TestMeterLitePanics pins that NewMeterLite rejects widths outside
// 1..MaxWidth loudly instead of building a meter that miscounts.
func TestMeterLitePanics(t *testing.T) {
	for _, width := range []int{-1, 0, MaxWidth + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewMeterLite(%d) did not panic", width)
				}
			}()
			NewMeterLite(width)
		}()
	}
}

// TestMeterRecordAllocs is the allocation regression guard for the
// per-cycle and batch hot paths: 0 allocs/op.
func TestMeterRecordAllocs(t *testing.T) {
	trace := randomTrace(t, 256, 32, 7)
	m := NewMeterLite(32)
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		m.Record(trace[i&255])
		i++
	}); allocs != 0 {
		t.Fatalf("Meter.Record allocates %v times per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		RecordValues(m, trace)
	}); allocs != 0 {
		t.Fatalf("RecordValues allocates %v times per op, want 0", allocs)
	}
}

// TestMeterStreamMatchesBatch is the property test for the incremental
// recording front-end: streaming each word through MeterStream.Record
// (with flushes interleaved at arbitrary points) must equal the buffered
// Record(0)+RecordValues(buf) path on every statistic, across widths.
func TestMeterStreamMatchesBatch(t *testing.T) {
	for _, width := range []int{1, 2, 33, 64} {
		trace := randomTrace(t, 3000, width, int64(width)*104729)
		batch := NewMeterLite(width)
		batch.Record(0)
		RecordValues(batch, trace)

		streamed := NewMeterLite(width)
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
			t.Fatalf("width %d: stream (%d,%d,%d,%#x) != batch (%d,%d,%d,%#x)",
				width,
				streamed.Cycles(), streamed.Transitions(), streamed.Couplings(), streamed.State(),
				batch.Cycles(), batch.Transitions(), batch.Couplings(), batch.State())
		}
	}
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

// TestMeterStreamAddBlockPreconditions: AddBlock refuses a stream with
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
}

// TestMeterCloneDetaches verifies Clone copies every statistic and that
// mutating the original afterwards leaves the clone untouched.
func TestMeterCloneDetaches(t *testing.T) {
	m := NewMeterLite(8)
	RecordValues(m, randomTrace(t, 200, 8, 11))
	c := m.Clone()
	wantCycles, wantTrans, wantCoup, wantState := m.Cycles(), m.Transitions(), m.Couplings(), m.State()
	RecordValues(m, randomTrace(t, 200, 8, 13))
	if c.Cycles() != wantCycles || c.Transitions() != wantTrans || c.Couplings() != wantCoup || c.State() != wantState {
		t.Fatalf("clone mutated by original: (%d,%d,%d,%#x) != (%d,%d,%d,%#x)",
			c.Cycles(), c.Transitions(), c.Couplings(), c.State(), wantCycles, wantTrans, wantCoup, wantState)
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

// FuzzMeterMatchesReference differences every production accounting path
// against the bit-serial oracle on an arbitrary width (1..64) and word
// sequence: Activity per cycle, Meter.Record per word, RecordValues in
// two calls split at an arbitrary point, and a MeterStream fed by blocks
// that are Recorded word by word or folded in with AddBlock (the
// oracle's counts over the block), flushed at arbitrary points. Words
// carry bits above the width, which every path must ignore.
func FuzzMeterMatchesReference(f *testing.F) {
	f.Add(uint8(31), []byte("\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00\x55\x55\x55\x55"), []byte{1, 2, 3})
	f.Add(uint8(0), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{})
	f.Add(uint8(63), []byte("\xaa\xaa\xaa\xaa\xaa\xaa\xaa\xaa\x55\x55\x55\x55\x55\x55\x55\x55"), []byte{0xfe, 0xff})
	f.Add(uint8(1), []byte("\x01\x02\x03\x00\x00\x00\x00\x00\x01"), []byte{6, 7, 0xc1})
	f.Fuzz(func(t *testing.T, rawWidth uint8, data, ops []byte) {
		width := 1 + int(rawWidth%MaxWidth)
		var trace []Word
		for len(data) > 0 && len(trace) < 4096 {
			var chunk [8]byte
			data = data[copy(chunk[:], data):]
			trace = append(trace, Word(binary.LittleEndian.Uint64(chunk[:])))
		}
		if len(trace) == 0 {
			return
		}
		mask, pairMask := Mask(width), Mask(width-1)

		// Oracle prefix totals: after[i] holds the counts once
		// trace[:i+1] has been recorded.
		type totals struct{ cycles, transitions, couplings uint64 }
		ref := newReferenceMeter(width)
		after := make([]totals, len(trace))
		states := make([]Word, len(trace))
		rec := NewMeterLite(width)
		for i, w := range trace {
			ref.Record(w)
			rec.Record(w)
			after[i] = totals{ref.cycles, ref.transitions, ref.couplings}
			states[i] = ref.state()
			if i == 0 {
				continue
			}
			tr, c := Activity(states[i-1], states[i-1]^(w&mask), pairMask)
			if tr != after[i].transitions-after[i-1].transitions || c != after[i].couplings-after[i-1].couplings {
				t.Fatalf("width %d cycle %d: Activity (%d, %d), reference (%d, %d)", width, i, tr, c,
					after[i].transitions-after[i-1].transitions, after[i].couplings-after[i-1].couplings)
			}
		}
		check := func(name string, m *Meter, n int) {
			t.Helper()
			w := after[n-1]
			if m.Cycles() != w.cycles || m.Transitions() != w.transitions ||
				m.Couplings() != w.couplings || m.State() != states[n-1] {
				t.Fatalf("width %d %s after %d words: (%d, %d, %d, %#x), reference (%d, %d, %d, %#x)",
					width, name, n, m.Cycles(), m.Transitions(), m.Couplings(), m.State(),
					w.cycles, w.transitions, w.couplings, states[n-1])
			}
		}
		check("Record", rec, len(trace))

		split := 0
		if len(ops) > 0 {
			split = int(ops[0]) * len(trace) / 256
		}
		batch := NewMeterLite(width)
		RecordValues(batch, trace[:split])
		RecordValues(batch, trace[split:])
		check("RecordValues", batch, len(trace))

		// Each op byte picks a block length from its high six bits (the
		// top values reach past the staging chunk) and, from its low
		// two, whether the block is Recorded, Recorded then Flushed, or
		// folded in with AddBlock. Words past the last op are Recorded.
		streamed := NewMeterLite(width)
		st := streamed.Stream()
		st.Record(trace[0]) // AddBlock needs the power-up state pinned
		pos := 1
		for _, op := range ops {
			n := int(op >> 2)
			if n >= 48 {
				n = (n - 47) * streamChunk / 4
			}
			n = min(n, len(trace)-pos)
			block := trace[pos : pos+n]
			if op&3 == 2 {
				var cycles, trans, coup uint64
				last := ^Word(0) // an empty block's last word is ignored
				if n > 0 {
					prev, end := after[pos-1], after[pos+n-1]
					cycles, trans, coup = end.cycles-prev.cycles, end.transitions-prev.transitions, end.couplings-prev.couplings
					last = block[n-1]
				}
				st.AddBlock(cycles, trans, coup, last)
			} else {
				for _, w := range block {
					st.Record(w)
				}
			}
			pos += n
			if op&3 == 3 {
				st.Flush()
				check("MeterStream", streamed, pos)
			}
		}
		for _, w := range trace[pos:] {
			st.Record(w)
		}
		st.Flush()
		check("MeterStream", streamed, len(trace))
	})
}
