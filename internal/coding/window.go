package coding

import (
	"fmt"
	"math/bits"

	"buspower/internal/bus"
)

// WindowTranscoder implements the Window-based transcoder of §4.3: a
// pointer-based shift register holds the last N *unique* bus values; a hit
// sends the low-weight codeword of the matching physical entry, a repeat
// of the previous value sends the all-zero code (LAST-value folded in,
// §5.3.3 "pointer-based last value"), and a miss sends the value raw (or
// inverted, whichever is cheaper) while both ends shift it into the
// register, evicting the oldest entry.
//
// This is the scheme the paper carries through to layout (Figure 33) and
// crossover analysis, chosen over the Context-based design for its far
// simpler hardware (§5.4.3).
type WindowTranscoder struct {
	width   int
	entries int
	lambda  float64
	cb      *Codebook
	name    string
}

// NewWindow builds a window transcoder with the given number of shift
// register entries; lambda is the assumed Λ used to order codewords and
// choose raw-vs-inverted fallbacks.
func NewWindow(width, entries int, lambda float64) (*WindowTranscoder, error) {
	checkWidth(width)
	if entries < 1 {
		return nil, fmt.Errorf("coding: window entries %d < 1", entries)
	}
	cb, err := NewCodebook(width, 1+entries, lambda)
	if err != nil {
		return nil, err
	}
	return &WindowTranscoder{
		width:   width,
		entries: entries,
		lambda:  lambda,
		cb:      cb,
		name:    fmt.Sprintf("window-%d", entries),
	}, nil
}

// Name implements Transcoder.
func (t *WindowTranscoder) Name() string { return t.name }

// ConfigKey implements ConfigKeyer: the name omits the width and the
// assumed Λ (which steers codeword order and raw-vs-inverted fallbacks).
func (t *WindowTranscoder) ConfigKey() string {
	return fmt.Sprintf("%s/w%d/l%g", t.name, t.width, t.lambda)
}

// DataWidth implements Transcoder.
func (t *WindowTranscoder) DataWidth() int { return t.width }

// Entries returns the shift register size.
func (t *WindowTranscoder) Entries() int { return t.entries }

// NewEncoder implements Transcoder.
func (t *WindowTranscoder) NewEncoder() Encoder {
	return &windowEncoder{t: t, st: newWindowState(t.entries), ch: newChannel(t.width, t.lambda)}
}

// NewDecoder implements Transcoder.
func (t *WindowTranscoder) NewDecoder() Decoder {
	return &windowDecoder{t: t, st: newWindowState(t.entries), ch: newDecodeChannel(t.width)}
}

// windowState is the dictionary shared (by construction) between encoder
// and decoder: a pointer-based ring of entries plus the last input value.
//
// rows (see matchRows) files every slot under the low byte of its entry,
// so find walks one partial-match row and the row's population is the
// modeled selective-precharge full-match count (§5.3.3); an insert
// moves the overwritten slot from the evicted value's row to the new
// value's. Above rowsMaxSlots, index (a ctxIndex keyed on the bare
// value) maps value → physical slot instead and the rows keep only
// their populations; the index's slot back-pointers let an eviction
// drop the oldest entry's key without probing for it.
//
// Entries are unique (values are only inserted on a miss) except for
// the initial all-zero fill. While any of those fresh zeros remain
// (tracked by fresh), the slots [head, n) all hold zero and the lowest
// is head itself, and 0 can never be *inserted* during that phase (it
// would have hit). The row walk visits slots in ascending order, so it
// returns head for 0 like a linear scan would; the index never holds the
// fresh zeros and answers find(0) = head without consulting them.
type windowState struct {
	entries []uint64
	head    int // next slot to overwrite (the oldest entry)
	last    uint64
	rows    matchRows
	index   *ctxIndex
	fresh   int // initial zero-filled slots not yet overwritten
}

func newWindowState(n int) windowState {
	return newWindowStateIndexed(n, n > rowsMaxSlots)
}

// newWindowStateIndexed builds the state with or without the hash index;
// the crossover tests force both on either side of rowsMaxSlots.
func newWindowStateIndexed(n int, indexed bool) windowState {
	s := windowState{entries: make([]uint64, n), rows: newMatchRows(n, indexed)}
	if indexed {
		s.index = newCtxIndex(n)
	}
	s.reset()
	return s
}

// find returns the physical slot holding v, or -1 (see windowState).
func (s *windowState) find(v uint64) int {
	slot, _ := s.probe(v)
	return slot
}

// probe is the selective-precharge CAM probe of §5.3.3 for v: every
// entry compares its low 8 bits, and the entries in v's partial-match
// row charge the comparators of the remaining bits. It returns the slot
// holding v, or -1, and that full-match count.
func (s *windowState) probe(v uint64) (slot int, full uint64) {
	if s.index != nil {
		if full = s.rows.count(byte(v)); full == 0 {
			return -1, 0
		}
		if v == 0 && s.fresh > 0 {
			return s.head, full
		}
		return s.index.get(ctxKey{cur: v}), full
	}
	slot = -1
	for wi, w := range s.rows.row(byte(v)) {
		full += uint64(bits.OnesCount64(w))
		for ; w != 0 && slot < 0; w &= w - 1 {
			if i := wi<<6 | bits.TrailingZeros64(w); s.entries[i] == v {
				slot = i
			}
		}
	}
	return slot, full
}

// insert overwrites the oldest entry with v (pointer-based shift: only one
// entry's bits change).
func (s *windowState) insert(v uint64) {
	evicted := s.entries[s.head]
	s.entries[s.head] = v
	s.rows.remove(byte(evicted), s.head)
	s.rows.add(byte(v), s.head)
	if s.fresh > 0 {
		s.fresh-- // evicting one of the initial zeros, which the index never held
	} else if s.index != nil {
		s.index.remove(s.head)
	}
	if s.index != nil {
		s.index.put(ctxKey{cur: v}, s.head)
	}
	s.head++
	if s.head == len(s.entries) {
		s.head = 0
	}
}

func (s *windowState) reset() {
	clear(s.entries)
	s.head = 0
	s.last = 0
	s.fresh = len(s.entries)
	if s.index != nil {
		s.index.clear()
	}
	s.rows.clear()
	for i := range s.entries {
		s.rows.add(0, i)
	}
}

// checkInvariants verifies that the rows file exactly the slots of each
// entry's low byte, that find locates every entry at its lowest slot, and
// that the index (when present) holds exactly the non-fresh entries;
// used by tests.
func (s *windowState) checkInvariants() error {
	rows := newMatchRows(len(s.entries), s.index != nil)
	for i, v := range s.entries {
		rows.add(byte(v), i)
	}
	if !rows.equal(&s.rows) {
		return fmt.Errorf("partial-match rows out of sync with the entries")
	}
	first := make(map[uint64]int, len(s.entries))
	for i, v := range s.entries {
		if j, dup := first[v]; dup {
			if v != 0 || s.fresh == 0 {
				return fmt.Errorf("value %#x in slots %d and %d", v, j, i)
			}
			continue
		}
		first[v] = i
		if got := s.find(v); got != i {
			return fmt.Errorf("find(%#x) = %d, want %d", v, got, i)
		}
	}
	if s.index != nil && s.index.len() != len(s.entries)-s.fresh {
		return fmt.Errorf("index holds %d keys, want %d", s.index.len(), len(s.entries)-s.fresh)
	}
	return nil
}

type windowEncoder struct {
	t   *WindowTranscoder
	st  windowState
	ch  channel
	ops OpStats
}

func (e *windowEncoder) Encode(v uint64) bus.Word {
	t := e.t
	v &= uint64(e.ch.dataMask)
	e.ops.Cycles++
	slot, full := e.st.probe(v)
	e.ops.PartialMatches += uint64(len(e.st.entries))
	e.ops.FullMatches += full
	var out bus.Word
	switch {
	case v == e.st.last:
		e.ops.LastHits++
		out = e.ch.sendCode(0)
	case slot >= 0:
		e.ops.CodeSends++
		out = e.ch.sendCode(t.cb.Code(1 + slot))
	default:
		e.ops.RawSends++
		e.ops.Shifts++
		e.st.insert(v)
		out, _ = e.ch.sendRaw(v)
	}
	e.st.last = v
	return out
}

// encodeStream implements streamEncoder: the same per-cycle algorithm as
// Encode, with the OpStats counters and the LAST-value register hoisted
// into locals — no per-cycle interface dispatch, no counter write-backs.
// The channel self-accounts the run's Σ activity (see beginBlock),
// folded into the meter stream with one AddBlock at the end.
// TestWindowEncodeStreamMatchesEncode pins it cycle-for-cycle (outputs,
// ops and dictionary state) to Encode.
func (e *windowEncoder) encodeStream(vals []uint64, st *bus.MeterStream) {
	t := e.t
	mask := uint64(e.ch.dataMask)
	nEntries := uint64(len(e.st.entries))
	last := e.st.last
	e.ch.beginBlock()
	var cycles, lastHits, codeSends, rawSends, partial, full uint64
	for _, v := range vals {
		v &= mask
		cycles++
		partial += nEntries
		slot, fm := e.st.probe(v)
		full += fm
		switch {
		case v == last:
			lastHits++
		case slot >= 0:
			codeSends++
			e.ch.sendCode(t.cb.Code(1 + slot))
		default:
			rawSends++
			e.st.insert(v)
			e.ch.sendRaw(v)
		}
		last = v
	}
	st.AddBlock(cycles, e.ch.accT, e.ch.accC, e.ch.state)
	e.st.last = last
	e.ops.Cycles += cycles
	e.ops.LastHits += lastHits
	e.ops.CodeSends += codeSends
	e.ops.RawSends += rawSends
	e.ops.Shifts += rawSends
	e.ops.PartialMatches += partial
	e.ops.FullMatches += full
}

func (e *windowEncoder) BusWidth() int { return e.ch.busWidth() }
func (e *windowEncoder) Reset() {
	e.st.reset()
	e.ch.reset()
	e.ops = OpStats{}
}
func (e *windowEncoder) Ops() OpStats { return e.ops }

type windowDecoder struct {
	t  *WindowTranscoder
	st windowState
	ch decodeChannel
}

func (d *windowDecoder) Decode(w bus.Word) uint64 {
	t := d.t
	mode, payload := d.ch.observe(w)
	var v uint64
	switch mode {
	case modeCode:
		idx, ok := t.cb.Index(payload)
		if !ok {
			panic(fmt.Sprintf("coding: window decoder received non-codeword transition %#x", payload))
		}
		if idx == 0 {
			v = d.st.last
		} else {
			v = d.st.entries[idx-1]
		}
	default:
		v = uint64(payload)
		d.st.insert(v)
	}
	d.st.last = v
	return v
}

func (d *windowDecoder) Reset() {
	d.st.reset()
	d.ch.reset()
}
