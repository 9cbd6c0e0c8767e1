package coding

import (
	"fmt"

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

// windowIndexMinEntries is the register size at which the hash-based
// reverse index starts beating the linear scan. Small registers (and the
// VLC extension's ≤14-entry ones) stay on the scan, which is faster for a
// handful of words and allocates nothing. It is a variable, not a
// constant, so tests can force either path and compare them.
var windowIndexMinEntries = 24

// windowState is the dictionary shared (by construction) between encoder
// and decoder: a pointer-based ring of entries plus the last input value.
//
// Two acceleration structures ride along without changing observable
// behavior. index (a ctxIndex keyed on the bare value) maps value →
// physical slot for O(1) find on large registers (nil below
// windowIndexMinEntries); its slot back-pointers let an eviction drop the
// oldest entry's key without probing for it. Its invariant relies on
// entries being unique: values are only inserted on a miss. The one
// duplicate case is the initial all-zero fill — while any of those fresh
// zeros remain (tracked by fresh), the slots [head, n) all hold zero and
// the lowest is head itself, so find(0) = head without consulting the map,
// and 0 can never be *inserted* during that phase (it would have hit).
//
// byteCount[b] counts entries whose low probe byte is b, so the modeled
// selective-precharge full-match count (§5.3.3) is O(1) per probe instead
// of a scan over the register.
type windowState struct {
	entries   []uint64
	head      int // next slot to overwrite (the oldest entry)
	last      uint64
	index     *ctxIndex
	fresh     int // initial zero-filled slots not yet overwritten
	byteCount [256]uint32
}

func newWindowState(n int) windowState {
	s := windowState{entries: make([]uint64, n), fresh: n}
	if n >= windowIndexMinEntries {
		s.index = newCtxIndex(n)
	}
	s.byteCount[0] = uint32(n)
	return s
}

// find returns the physical slot holding v, or -1. With the index it is
// O(1); the linear scan returns the first match, which the index
// reproduces because entries are unique (see windowState).
func (s *windowState) find(v uint64) int {
	if s.index == nil {
		for i, e := range s.entries {
			if e == v {
				return i
			}
		}
		return -1
	}
	if v == 0 && s.fresh > 0 {
		return s.head
	}
	return s.index.get(ctxKey{cur: v})
}

// insert overwrites the oldest entry with v (pointer-based shift: only one
// entry's bits change).
func (s *windowState) insert(v uint64) {
	evicted := s.entries[s.head]
	s.entries[s.head] = v
	s.byteCount[evicted&0xFF]--
	s.byteCount[v&0xFF]++
	if s.index != nil {
		if s.fresh > 0 {
			s.fresh-- // evicting one of the initial zeros, which the index never held
		} else {
			s.index.remove(s.head)
		}
		s.index.put(ctxKey{cur: v}, s.head)
	}
	s.head++
	if s.head == len(s.entries) {
		s.head = 0
	}
}

func (s *windowState) reset() {
	for i := range s.entries {
		s.entries[i] = 0
	}
	s.head = 0
	s.last = 0
	s.fresh = len(s.entries)
	if s.index != nil {
		s.index.clear()
	}
	s.byteCount = [256]uint32{}
	s.byteCount[0] = uint32(len(s.entries))
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
	e.countProbes(v)
	var out bus.Word
	switch {
	case v == e.st.last:
		e.ops.LastHits++
		out = e.ch.sendCode(0)
	case e.st.byteCount[v&0xFF] == 0:
		// The selective-precharge partial match (the byte histogram) already
		// proves no entry can equal v: take the miss path without scanning.
		e.ops.RawSends++
		e.ops.Shifts++
		e.st.insert(v)
		out, _ = e.ch.sendRaw(v)
	default:
		if slot := e.st.find(v); slot >= 0 {
			e.ops.CodeSends++
			out = e.ch.sendCode(t.cb.Code(1 + slot))
		} else {
			e.ops.RawSends++
			e.ops.Shifts++
			e.st.insert(v)
			out, _ = e.ch.sendRaw(v)
		}
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
		fm := e.st.byteCount[v&0xFF]
		full += uint64(fm)
		switch {
		case v == last:
			lastHits++
		case fm == 0:
			rawSends++
			e.st.insert(v)
			e.ch.sendRaw(v)
		default:
			if slot := e.st.find(v); slot >= 0 {
				codeSends++
				e.ch.sendCode(t.cb.Code(1 + slot))
			} else {
				rawSends++
				e.st.insert(v)
				e.ch.sendRaw(v)
			}
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

// countProbes models the selective-precharge CAM probe of §5.3.3: every
// entry compares its low 8 bits; only entries passing that partial match
// charge the comparators of the remaining bits. The byte histogram keeps
// the modeled counts identical to scanning the register.
func (e *windowEncoder) countProbes(v uint64) {
	e.ops.PartialMatches += uint64(len(e.st.entries))
	e.ops.FullMatches += uint64(e.st.byteCount[v&0xFF])
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
