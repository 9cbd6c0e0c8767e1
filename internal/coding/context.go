package coding

import (
	"fmt"
	"math/bits"

	"buspower/internal/bus"
)

// ContextTranscoder implements the Context-based transcoder of §4.3
// (Figures 12-14) and §5.3: a frequency table of the most common bus
// values (or value transitions), kept sorted by frequency so that an
// entry's *position* is its codeword (Invariant 1: unique tags; Invariant
// 2: counters non-increasing down the table), fed by a shift-register
// front-end that lets new values accumulate counts before competing for a
// table slot.
//
// Sorting uses the paper's low-overhead pending-bit neighbour-swap
// algorithm (§5.3.1, Figure 27): hits set a pending bit rather than
// incrementing immediately; each cycle the top entry with a pending bit
// increments, and an entry whose counter *equals* its upper neighbour's
// swaps upward, so entries rise one position per cycle using only XOR
// equality comparators and O(n) neighbour wiring. Counters saturate like
// the paper's four concatenated 4-bit Johnson counters (max 4095) and are
// periodically halved (the "counter division time") to track phase
// changes.
//
// Two flavours exist (Figures 13-14): value-based keys entries on bus
// values; transition-based keys them on (previous, current) value pairs.
// The paper finds value-based strictly better for equal hardware — there
// are far more arcs than states — and carries value-based forward.
type ContextTranscoder struct {
	cfg  ContextConfig
	cb   *Codebook
	name string
}

// ContextConfig parameterizes a Context-based transcoder.
type ContextConfig struct {
	// Width is the data width in bits.
	Width int
	// TableSize is the number of frequency table entries.
	TableSize int
	// ShiftEntries is the shift-register (window) size; the paper settles
	// on 8.
	ShiftEntries int
	// DividePeriod is the counter division time in cycles (0 disables);
	// the paper settles on 4096.
	DividePeriod int
	// TransitionBased selects the transition-frequency flavour
	// (Figure 14) instead of value-frequency (Figure 13).
	TransitionBased bool
	// Lambda is the assumed Λ used to order codewords and to choose
	// raw-vs-inverted fallbacks.
	Lambda float64
}

// counterMax mirrors the saturation point of four concatenated 4-bit
// Johnson counters (§5.3.3): 8^4 = 4096 states, so the largest count is
// 4095. TestContextCounterSaturation checks it against circuit's model.
const counterMax = 4095

// NewContext builds a Context-based transcoder.
func NewContext(cfg ContextConfig) (*ContextTranscoder, error) {
	checkWidth(cfg.Width)
	if cfg.TableSize < 1 {
		return nil, fmt.Errorf("coding: context table size %d < 1", cfg.TableSize)
	}
	if cfg.ShiftEntries < 1 {
		return nil, fmt.Errorf("coding: context shift register size %d < 1", cfg.ShiftEntries)
	}
	if cfg.DividePeriod < 0 {
		return nil, fmt.Errorf("coding: negative divide period %d", cfg.DividePeriod)
	}
	cb, err := NewCodebook(cfg.Width, 1+cfg.TableSize+cfg.ShiftEntries, cfg.Lambda)
	if err != nil {
		return nil, err
	}
	flavour := "value"
	if cfg.TransitionBased {
		flavour = "transition"
	}
	name := fmt.Sprintf("context-%s-t%d-s%d", flavour, cfg.TableSize, cfg.ShiftEntries)
	return &ContextTranscoder{cfg: cfg, cb: cb, name: name}, nil
}

// Name implements Transcoder.
func (t *ContextTranscoder) Name() string { return t.name }

// ConfigKey implements ConfigKeyer: the name omits the width, divide
// period and assumed Λ, all of which change the coded stream.
func (t *ContextTranscoder) ConfigKey() string {
	return fmt.Sprintf("%s-d%d/w%d/l%g", t.name, t.cfg.DividePeriod, t.cfg.Width, t.cfg.Lambda)
}

// DataWidth implements Transcoder.
func (t *ContextTranscoder) DataWidth() int { return t.cfg.Width }

// Config returns the transcoder's configuration.
func (t *ContextTranscoder) Config() ContextConfig { return t.cfg }

// NewEncoder implements Transcoder.
func (t *ContextTranscoder) NewEncoder() Encoder {
	return &contextEncoder{t: t, st: newContextState(t.cfg), ch: newChannel(t.cfg.Width, t.cfg.Lambda)}
}

// NewDecoder implements Transcoder.
func (t *ContextTranscoder) NewDecoder() Decoder {
	return &contextDecoder{t: t, st: newContextState(t.cfg), ch: newDecodeChannel(t.cfg.Width)}
}

// ctxKey identifies a dictionary entry: the value itself for value-based
// operation, or the (previous, current) pair for transition-based.
type ctxKey struct {
	prev, cur uint64
}

type tableEntry struct {
	key     ctxKey
	count   uint32
	pending bool
	valid   bool
}

type srEntry struct {
	key   ctxKey
	count uint32
	valid bool
}

// contextState is the complete shared FSM state; encoder and decoder each
// own one and keep them identical by construction.
//
// Dictionary slots number the table and shift register together: table
// slot i is slot i, register slot j is slot TableSize+j — the entry's
// codeword index minus one. Acceleration structures shadow the arrays
// without changing observable behavior:
//
//   - rows (see matchRows) holds every valid entry of both structures in
//     the partial-match row of its key's low byte, so classifying a value
//     walks one row and the row's population is the modeled full-match
//     count. A sort swap, a promotion or a shift touches one or two bits
//     per entry it moves.
//   - index, above rowsMaxSlots only, maps key → slot over both
//     structures with per-slot back-pointers, so a sort swap relabels two
//     slots in place and a promotion moves its key to the table instead
//     of re-inserting it; rows then keep only their populations.
//
// Both hold exactly the valid entries' keys, which Invariant 1 keeps
// unique. pendingBits mirrors the table's pending flags as a bitset so
// the per-cycle sort pass skips over pending-free regions 64 entries at
// a time — on a converged dictionary most cycles carry at most a bit or
// two — and validBits mirrors its valid flags so a promotion finds the
// lowest occupied entry above the bottom slot without walking the empty
// slots between.
type contextState struct {
	cfg    ContextConfig
	table  []tableEntry
	sr     []srEntry
	srHead int
	last   uint64
	// untilDivide counts down to the next counter division (0 when
	// DividePeriod is disabled) — a decrement per cycle instead of the
	// modulo the period check would otherwise cost on every value.
	untilDivide int

	rows        matchRows
	index       *ctxIndex
	pendingBits []uint64
	validBits   []uint64
	// pendingCount tracks the number of set pendingBits so the per-cycle
	// step can skip the sort pass without touching the bitset words.
	pendingCount int

	ops *OpStats // optional, set by the encoder
}

func newContextState(cfg ContextConfig) contextState {
	slots := cfg.TableSize + cfg.ShiftEntries
	return newContextStateIndexed(cfg, slots > rowsMaxSlots)
}

// newContextStateIndexed builds the state with or without the hash
// index; the crossover tests force both on either side of rowsMaxSlots.
func newContextStateIndexed(cfg ContextConfig, indexed bool) contextState {
	words := (cfg.TableSize + 63) / 64
	slots := cfg.TableSize + cfg.ShiftEntries
	s := contextState{
		cfg:         cfg,
		table:       make([]tableEntry, cfg.TableSize),
		sr:          make([]srEntry, cfg.ShiftEntries),
		rows:        newMatchRows(slots, indexed),
		pendingBits: make([]uint64, words),
		validBits:   make([]uint64, words),
		untilDivide: cfg.DividePeriod,
	}
	if indexed {
		s.index = newCtxIndex(slots)
	}
	return s
}

func (s *contextState) makeKey(v uint64) ctxKey {
	if s.cfg.TransitionBased {
		return ctxKey{prev: s.last, cur: v}
	}
	return ctxKey{cur: v}
}

// setPendingBit keeps the bitset (and its population count) in lockstep
// with table[i].pending.
func (s *contextState) setPendingBit(i int, pending bool) {
	w := &s.pendingBits[i>>6]
	bit := uint64(1) << (i & 63)
	if pending {
		if *w&bit == 0 {
			s.pendingCount++
		}
		*w |= bit
	} else {
		if *w&bit != 0 {
			s.pendingCount--
		}
		*w &^= bit
	}
}

// setValidBit keeps validBits in lockstep with table[i].valid.
func (s *contextState) setValidBit(i int, valid bool) {
	bit := uint64(1) << (i & 63)
	if valid {
		s.validBits[i>>6] |= bit
	} else {
		s.validBits[i>>6] &^= bit
	}
}

// lastValidAbove returns the highest-numbered occupied table slot below
// i (the lowest occupied entry above slot i in table order), or -1.
func (s *contextState) lastValidAbove(i int) int {
	j := i - 1
	if j < 0 {
		return -1
	}
	wi := j >> 6
	w := s.validBits[wi] & (^uint64(0) >> (63 - uint(j&63)))
	for w == 0 {
		if wi--; wi < 0 {
			return -1
		}
		w = s.validBits[wi]
	}
	return wi<<6 + 63 - bits.LeadingZeros64(w)
}

// step advances the per-cycle machinery: counter division and one pass of
// the pending-bit sort. Both ends call it at the top of every cycle,
// before classifying the new value, so positional codes stay consistent.
func (s *contextState) step() {
	// Inlineable fast path: with no pending bits the sort pass is a no-op
	// (it iterates set bits only and counts no compares), and away from a
	// division boundary the countdown is a plain decrement. Converged
	// dictionaries and miss-heavy traces take this on most cycles.
	if s.pendingCount == 0 && s.untilDivide != 1 {
		if s.untilDivide > 0 {
			s.untilDivide--
		}
		return
	}
	s.stepSlow()
}

func (s *contextState) stepSlow() {
	if s.untilDivide > 0 {
		s.untilDivide--
		if s.untilDivide == 0 {
			for i := range s.table {
				s.table[i].count /= 2
			}
			for i := range s.sr {
				s.sr[i].count /= 2
			}
			s.untilDivide = s.cfg.DividePeriod
		}
	}
	// One top-to-bottom pass of the neighbour-swap sort: each pending
	// entry either increments (safe: its upper neighbour's counter is
	// strictly greater, or it is the top) or swaps one position upward
	// (its upper neighbour's counter is equal, so order is preserved).
	//
	// The pass iterates the pending bitset sparsely. This visits exactly
	// the entries an ascending flag-checking scan would: processing entry
	// e only mutates pending state at positions e-1 and e, never at a
	// position the scan has yet to reach, so each position's pending flag
	// at reach-time equals its value when the pass started.
	for wi, word := range s.pendingBits {
		for word != 0 {
			e := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if s.ops != nil {
				s.ops.CounterCompares++
			}
			switch {
			case e == 0:
				s.increment(e)
			case !s.table[e-1].valid:
				// Unoccupied slot above: rise past it unconditionally (real
				// hardware has no empty slots; zero-count entries there would
				// compare equal and be swapped through just the same).
				s.swap(e)
			case s.table[e].count < s.table[e-1].count:
				s.increment(e)
			case s.table[e].count > s.table[e-1].count:
				// Ordering disturbed (can only arise transiently around
				// unoccupied slots): restore it by rising.
				s.swap(e)
			case !s.table[e-1].pending:
				s.swap(e)
			default:
				// Upper neighbour is pending with an equal counter: both will
				// rise by increment; no swap needed to preserve the invariant.
				s.increment(e)
			}
		}
	}
}

// swap exchanges entry e with its upper neighbour.
func (s *contextState) swap(e int) {
	s.table[e], s.table[e-1] = s.table[e-1], s.table[e]
	s.setPendingBit(e, s.table[e].pending)
	s.setPendingBit(e-1, s.table[e-1].pending)
	s.setValidBit(e, s.table[e].valid)
	s.setValidBit(e-1, s.table[e-1].valid)
	if a, b := &s.table[e-1], &s.table[e]; a.valid != b.valid || byte(a.key.cur) != byte(b.key.cur) {
		// Two entries sharing a row leave it unchanged.
		if a.valid {
			s.rows.move(byte(a.key.cur), e-1, e)
		}
		if b.valid {
			s.rows.move(byte(b.key.cur), e-1, e)
		}
	}
	if s.index != nil {
		s.index.swap(e, e-1)
	}
	if s.ops != nil {
		s.ops.Swaps++
	}
}

func (s *contextState) increment(e int) {
	if s.table[e].count < counterMax {
		s.table[e].count++
	}
	s.table[e].pending = false
	s.setPendingBit(e, false)
	if s.ops != nil {
		s.ops.CounterIncrements++
	}
}

// find returns the dictionary slot holding key (see contextState), or
// -1.
func (s *contextState) find(key ctxKey) int {
	slot, _ := s.probe(key)
	return slot
}

// probe is the modeled CAM probe for key: the slot holding it, or -1,
// and the population of its partial-match row — the entries that pay a
// full compare. The row walk and the index agree because both hold
// exactly the valid entries' keys, and Invariant 1 makes valid keys
// unique.
func (s *contextState) probe(key ctxKey) (slot int, full uint64) {
	if s.index != nil {
		if full = s.rows.count(byte(key.cur)); full == 0 {
			return -1, 0
		}
		return s.index.get(key), full
	}
	slot = -1
	nt := len(s.table)
	for wi, w := range s.rows.row(byte(key.cur)) {
		full += uint64(bits.OnesCount64(w))
		for ; w != 0 && slot < 0; w &= w - 1 {
			i := wi<<6 | bits.TrailingZeros64(w)
			if i < nt {
				if s.table[i].key == key {
					slot = i
				}
			} else if s.sr[i-nt].key == key {
				slot = i
			}
		}
	}
	return slot, full
}

// update applies the frequency bookkeeping for input value v. It must be
// called after classification, and identically on both ends.
func (s *contextState) update(v uint64) {
	key := s.makeKey(v)
	s.updateAt(v, key, s.find(key))
}

// updateAt is update for callers that already probed the dictionary
// while classifying v (the encoder): slot is find(key). Nothing between
// classification and update mutates the dictionary, so reusing the
// classification's probe here halves the per-cycle lookups without
// changing a single count.
func (s *contextState) updateAt(v uint64, key ctxKey, slot int) {
	switch {
	case slot < 0:
		s.insertSR(key)
	case slot < len(s.table):
		// A hit to an entry whose pending bit is already set is lost
		// (§5.3.1 footnote) — correctness is unaffected, some counts are.
		s.table[slot].pending = true
		s.setPendingBit(slot, true)
	default:
		e := &s.sr[slot-len(s.table)]
		if e.count < counterMax {
			e.count++
		}
		if s.ops != nil {
			s.ops.CounterIncrements++
		}
	}
	s.last = v
}

// insertSR shifts key into the register (pointer-based: one entry
// rewritten); the evicted entry competes for the frequency table's bottom
// slot (see promote).
func (s *contextState) insertSR(key ctxKey) {
	slot := len(s.table) + s.srHead
	evicted := s.sr[s.srHead]
	s.sr[s.srHead] = srEntry{key: key, count: 1, valid: true}
	s.srHead++
	if s.srHead == len(s.sr) {
		s.srHead = 0
	}
	if s.ops != nil {
		s.ops.Shifts++
	}
	if evicted.valid {
		s.promote(evicted, slot)
	}
	s.rows.add(byte(key.cur), slot)
	if s.index != nil {
		s.index.put(key, slot)
	}
}

// promote moves the entry just evicted from register slot srSlot into
// the table's bottom slot if it out-counts the current least-frequent
// entry (or the slot is empty); otherwise the evicted entry is dropped.
func (s *contextState) promote(evicted srEntry, srSlot int) {
	bottom := len(s.table) - 1
	old := &s.table[bottom]
	if old.valid && evicted.count <= old.count {
		s.rows.remove(byte(evicted.key.cur), srSlot)
		if s.index != nil {
			s.index.remove(srSlot)
		}
		return
	}
	count := evicted.count
	// Preserve Invariant 2 on insertion: the new bottom entry may not
	// out-count the lowest occupied entry above it (the real hardware
	// achieves this implicitly by re-earning counts; we clamp, which
	// keeps strictly more of the earned frequency).
	if above := s.lastValidAbove(bottom); above >= 0 && count > s.table[above].count {
		count = s.table[above].count
	}
	if old.valid {
		s.rows.remove(byte(old.key.cur), bottom)
		if s.index != nil {
			s.index.remove(bottom)
		}
	}
	*old = tableEntry{key: evicted.key, count: count, valid: true}
	s.rows.move(byte(evicted.key.cur), srSlot, bottom)
	s.setPendingBit(bottom, false)
	s.setValidBit(bottom, true)
	if s.index != nil {
		s.index.move(srSlot, bottom)
	}
	if s.ops != nil {
		s.ops.TableWrites++
	}
}

func (s *contextState) reset() {
	for i := range s.table {
		s.table[i] = tableEntry{}
	}
	for i := range s.sr {
		s.sr[i] = srEntry{}
	}
	s.srHead = 0
	s.last = 0
	s.untilDivide = s.cfg.DividePeriod
	if s.index != nil {
		s.index.clear()
	}
	s.rows.clear()
	clear(s.pendingBits)
	clear(s.validBits)
	s.pendingCount = 0
}

// checkInvariants verifies Invariants 1 and 2 plus the consistency of the
// acceleration structures with the arrays they shadow; used by tests.
func (s *contextState) checkInvariants() error {
	seen := make(map[ctxKey]bool)
	rows := newMatchRows(len(s.table)+len(s.sr), s.index != nil)
	valid := 0
	// checkSlot verifies the index entry of one dictionary slot: a valid
	// entry's back-pointer names a bucket holding its key and pointing
	// back at the slot, and an empty slot has no back-pointer.
	checkSlot := func(slot int, ok bool, key ctxKey) error {
		if s.index == nil {
			return nil
		}
		b := s.index.back[slot]
		if !ok {
			if b != -1 {
				return fmt.Errorf("index back-pointer %d set for empty slot %d", b, slot)
			}
			return nil
		}
		if b < 0 || s.index.keys[b] != key || int(s.index.slots[b]) != slot {
			return fmt.Errorf("index back-pointer of slot %d (key %+v) out of sync: bucket %d", slot, key, b)
		}
		if got := s.index.get(key); got != slot {
			return fmt.Errorf("index out of sync for key %+v: got %d want %d", key, got, slot)
		}
		return nil
	}
	for i, e := range s.table {
		if e.pending != (s.pendingBits[i>>6]&(1<<(i&63)) != 0) {
			return fmt.Errorf("pending bitset out of sync at slot %d", i)
		}
		if e.valid != (s.validBits[i>>6]&(1<<(i&63)) != 0) {
			return fmt.Errorf("valid bitset out of sync at slot %d", i)
		}
		if err := checkSlot(i, e.valid, e.key); err != nil {
			return err
		}
		if !e.valid {
			continue
		}
		valid++
		rows.add(byte(e.key.cur), i)
		if seen[e.key] {
			return fmt.Errorf("invariant 1 violated: duplicate table key %+v", e.key)
		}
		seen[e.key] = true
		if got := s.find(e.key); got != i {
			return fmt.Errorf("find(%+v) = %d, want table slot %d", e.key, got, i)
		}
		if i > 0 && s.table[i-1].valid && e.count > s.table[i-1].count {
			return fmt.Errorf("invariant 2 violated at slot %d: %d > %d", i, e.count, s.table[i-1].count)
		}
	}
	for i, e := range s.sr {
		if err := checkSlot(len(s.table)+i, e.valid, e.key); err != nil {
			return err
		}
		if !e.valid {
			continue
		}
		valid++
		rows.add(byte(e.key.cur), len(s.table)+i)
		if seen[e.key] {
			return fmt.Errorf("invariant 1 violated: key %+v in both table and shift register", e.key)
		}
		if got := s.find(e.key); got != len(s.table)+i {
			return fmt.Errorf("find(%+v) = %d, want shift register slot %d", e.key, got, len(s.table)+i)
		}
	}
	if !rows.equal(&s.rows) {
		return fmt.Errorf("partial-match rows out of sync with the valid entries")
	}
	if s.index != nil && s.index.len() != valid {
		return fmt.Errorf("index holds %d keys, want %d", s.index.len(), valid)
	}
	pop := 0
	for _, w := range s.pendingBits {
		pop += bits.OnesCount64(w)
	}
	if pop != s.pendingCount {
		return fmt.Errorf("pending count %d out of sync with bitset population %d", s.pendingCount, pop)
	}
	return nil
}

type contextEncoder struct {
	t   *ContextTranscoder
	st  contextState
	ch  channel
	ops OpStats
}

func (e *contextEncoder) Encode(v uint64) bus.Word {
	v &= uint64(e.ch.dataMask)
	e.st.ops = &e.ops
	e.ops.Cycles++
	e.st.step()
	key := e.st.makeKey(v)

	// Classification and update share one dictionary probe (updateAt);
	// the LAST-hit path needs it only for the update.
	slot, full := e.st.probe(key)
	e.ops.PartialMatches += uint64(len(e.st.table) + len(e.st.sr))
	e.ops.FullMatches += full
	var out bus.Word
	switch {
	case v == e.st.last:
		e.ops.LastHits++
		out = e.ch.sendCode(0)
	case slot >= 0:
		e.ops.CodeSends++
		out = e.ch.sendCode(e.t.cb.Code(1 + slot))
	default:
		e.ops.RawSends++
		out, _ = e.ch.sendRaw(v)
	}
	e.st.updateAt(v, key, slot)
	return out
}

// encodeStream implements streamEncoder: Encode's per-cycle algorithm
// with the mask and hot counters hoisted into locals. The channel
// self-accounts the run's Σ activity (see beginBlock), folded into the
// meter stream with one AddBlock instead of a per-cycle record.
// TestContextEncodeStreamMatchesEncode pins it cycle-for-cycle (outputs,
// ops and dictionary state) to Encode.
func (e *contextEncoder) encodeStream(vals []uint64, st *bus.MeterStream) {
	cb := e.t.cb
	mask := uint64(e.ch.dataMask)
	probes := uint64(len(e.st.table) + len(e.st.sr))
	e.st.ops = &e.ops
	e.ch.beginBlock()
	var lastHits, codeSends, rawSends, full uint64
	for _, v := range vals {
		v &= mask
		e.st.step()
		key := e.st.makeKey(v)
		slot, fm := e.st.probe(key)
		full += fm
		switch {
		case v == e.st.last:
			lastHits++
		case slot >= 0:
			codeSends++
			e.ch.sendCode(cb.Code(1 + slot))
		default:
			rawSends++
			e.ch.sendRaw(v)
		}
		e.st.updateAt(v, key, slot)
	}
	n := uint64(len(vals))
	st.AddBlock(n, e.ch.accT, e.ch.accC, e.ch.state)
	e.ops.Cycles += n
	e.ops.LastHits += lastHits
	e.ops.CodeSends += codeSends
	e.ops.RawSends += rawSends
	e.ops.PartialMatches += n * probes
	e.ops.FullMatches += full
}

func (e *contextEncoder) BusWidth() int { return e.ch.busWidth() }
func (e *contextEncoder) Reset() {
	e.st.reset()
	e.ch.reset()
	e.ops = OpStats{}
}
func (e *contextEncoder) Ops() OpStats { return e.ops }

type contextDecoder struct {
	t  *ContextTranscoder
	st contextState
	ch decodeChannel
}

func (d *contextDecoder) Decode(w bus.Word) uint64 {
	t := d.t
	d.st.step()
	mode, payload := d.ch.observe(w)
	var v uint64
	switch mode {
	case modeCode:
		idx, ok := t.cb.Index(payload)
		if !ok {
			panic(fmt.Sprintf("coding: context decoder received non-codeword transition %#x", payload))
		}
		switch {
		case idx == 0:
			v = d.st.last
		case idx <= t.cfg.TableSize:
			v = d.st.table[idx-1].key.cur
		default:
			v = d.st.sr[idx-1-t.cfg.TableSize].key.cur
		}
	default:
		v = uint64(payload)
	}
	d.st.update(v)
	return v
}

func (d *contextDecoder) Reset() {
	d.st.reset()
	d.ch.reset()
}
