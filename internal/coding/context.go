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

// ctxSlot is one dictionary entry: its key and its frequency counter.
type ctxSlot struct {
	key   ctxKey
	count uint32
}

// contextState is the complete shared FSM state; encoder and decoder each
// own one and keep them identical by construction.
//
// One slot array holds the table and the shift register: table entry i
// is slot i and register entry j is slot TableSize+j, so a slot is its
// entry's codeword index minus one. Two bitsets are the only store of
// the entries' flags: valid marks the occupied slots of both structures,
// and pending the table entries hit since their last increment. The
// per-cycle sort pass walks the pending bits, skipping pending-free
// regions 64 entries at a time (on a converged dictionary most cycles
// carry at most a bit or two), and a promotion finds the lowest occupied
// table entry above the bottom slot in the valid bits without walking
// the empty slots between.
//
// Acceleration structures shadow the slots without changing observable
// behavior:
//
//   - rows (see matchRows) holds every valid entry in the partial-match
//     row of its key's low byte, so classifying a value walks one row and
//     the row's population is the modeled full-match count. A sort swap,
//     a promotion or a shift touches one or two bits per entry it moves.
//   - index, above rowsMaxSlots only, maps key → slot with per-slot
//     back-pointers, so a sort swap relabels two slots in place and a
//     promotion moves its key to the table instead of re-inserting it;
//     rows then keep only their populations.
//
// Both hold exactly the valid entries' keys, which Invariant 1 keeps
// unique.
type contextState struct {
	cfg    ContextConfig
	slots  []ctxSlot
	srHead int // next register entry to overwrite
	last   uint64
	// untilDivide counts down to the next counter division (0 when
	// DividePeriod is disabled) — a decrement per cycle instead of the
	// modulo the period check would otherwise cost on every value.
	untilDivide int

	rows    matchRows
	index   *ctxIndex
	valid   []uint64
	pending []uint64
	// pendingCount tracks the number of set pending bits so the per-cycle
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
	slots := cfg.TableSize + cfg.ShiftEntries
	s := contextState{
		cfg:         cfg,
		slots:       make([]ctxSlot, slots),
		rows:        newMatchRows(slots, indexed),
		valid:       make([]uint64, (slots+63)/64),
		pending:     make([]uint64, (cfg.TableSize+63)/64),
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

// hasBit reports whether bit i of the bitset is set.
func hasBit(set []uint64, i int) bool { return set[i>>6]&(1<<(i&63)) != 0 }

// swapBits exchanges bits i and j of the bitset.
func swapBits(set []uint64, i, j int) {
	if hasBit(set, i) != hasBit(set, j) {
		set[i>>6] ^= 1 << (i & 63)
		set[j>>6] ^= 1 << (j & 63)
	}
}

// setPending sets or clears table entry i's pending bit, keeping
// pendingCount equal to the bitset's population.
func (s *contextState) setPending(i int, pending bool) {
	w := &s.pending[i>>6]
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

// lastValidAbove returns the highest-numbered occupied table slot below
// i (the lowest occupied entry above slot i in table order), or -1.
func (s *contextState) lastValidAbove(i int) int {
	j := i - 1
	if j < 0 {
		return -1
	}
	wi := j >> 6
	w := s.valid[wi] & (^uint64(0) >> (63 - uint(j&63)))
	for w == 0 {
		if wi--; wi < 0 {
			return -1
		}
		w = s.valid[wi]
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
			for i := range s.slots {
				s.slots[i].count /= 2
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
	for wi, word := range s.pending {
		for word != 0 {
			e := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if s.ops != nil {
				s.ops.CounterCompares++
			}
			switch {
			case e == 0:
				s.increment(e)
			case !hasBit(s.valid, e-1):
				// Unoccupied slot above: rise past it unconditionally (real
				// hardware has no empty slots; zero-count entries there would
				// compare equal and be swapped through just the same).
				s.swap(e)
			case s.slots[e].count < s.slots[e-1].count:
				s.increment(e)
			case s.slots[e].count > s.slots[e-1].count:
				// Ordering disturbed (can only arise transiently around
				// unoccupied slots): restore it by rising.
				s.swap(e)
			case !hasBit(s.pending, e-1):
				s.swap(e)
			default:
				// Upper neighbour is pending with an equal counter: both will
				// rise by increment; no swap needed to preserve the invariant.
				s.increment(e)
			}
		}
	}
}

// swap exchanges table entry e with its upper neighbour.
func (s *contextState) swap(e int) {
	a, b := &s.slots[e-1], &s.slots[e]
	va, vb := hasBit(s.valid, e-1), hasBit(s.valid, e)
	if va != vb || byte(a.key.cur) != byte(b.key.cur) {
		// Two entries sharing a row leave it unchanged.
		if va {
			s.rows.move(byte(a.key.cur), e-1, e)
		}
		if vb {
			s.rows.move(byte(b.key.cur), e, e-1)
		}
	}
	*a, *b = *b, *a
	swapBits(s.valid, e-1, e)
	swapBits(s.pending, e-1, e)
	if s.index != nil {
		s.index.swap(e, e-1)
	}
	if s.ops != nil {
		s.ops.Swaps++
	}
}

func (s *contextState) increment(e int) {
	if s.slots[e].count < counterMax {
		s.slots[e].count++
	}
	s.setPending(e, false)
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
	for wi, w := range s.rows.row(byte(key.cur)) {
		full += uint64(bits.OnesCount64(w))
		for ; w != 0 && slot < 0; w &= w - 1 {
			if i := wi<<6 | bits.TrailingZeros64(w); s.slots[i].key == key {
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
	case slot < s.cfg.TableSize:
		// A hit to an entry whose pending bit is already set is lost
		// (§5.3.1 footnote) — correctness is unaffected, some counts are.
		s.setPending(slot, true)
	default:
		if c := &s.slots[slot].count; *c < counterMax {
			*c++
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
	slot := s.cfg.TableSize + s.srHead
	s.srHead++
	if s.srHead == s.cfg.ShiftEntries {
		s.srHead = 0
	}
	if s.ops != nil {
		s.ops.Shifts++
	}
	if hasBit(s.valid, slot) {
		s.promote(slot)
	}
	s.slots[slot] = ctxSlot{key: key, count: 1}
	s.valid[slot>>6] |= 1 << (slot & 63)
	s.rows.add(byte(key.cur), slot)
	if s.index != nil {
		s.index.put(key, slot)
	}
}

// promote moves the entry about to be evicted from register slot srSlot
// into the table's bottom slot if it out-counts the current
// least-frequent entry (or the slot is empty); otherwise the evicted
// entry is dropped. Either way srSlot leaves the rows and the index.
func (s *contextState) promote(srSlot int) {
	evicted := s.slots[srSlot]
	bottom := s.cfg.TableSize - 1
	old := &s.slots[bottom]
	oldValid := hasBit(s.valid, bottom)
	if oldValid && evicted.count <= old.count {
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
	if above := s.lastValidAbove(bottom); above >= 0 && count > s.slots[above].count {
		count = s.slots[above].count
	}
	if oldValid {
		s.rows.remove(byte(old.key.cur), bottom)
		if s.index != nil {
			s.index.remove(bottom)
		}
	}
	*old = ctxSlot{key: evicted.key, count: count}
	s.rows.move(byte(evicted.key.cur), srSlot, bottom)
	s.setPending(bottom, false)
	s.valid[bottom>>6] |= 1 << (bottom & 63)
	if s.index != nil {
		s.index.move(srSlot, bottom)
	}
	if s.ops != nil {
		s.ops.TableWrites++
	}
}

func (s *contextState) reset() {
	clear(s.slots)
	s.srHead = 0
	s.last = 0
	s.untilDivide = s.cfg.DividePeriod
	if s.index != nil {
		s.index.clear()
	}
	s.rows.clear()
	clear(s.valid)
	clear(s.pending)
	s.pendingCount = 0
}

// checkInvariants verifies Invariants 1 and 2 plus the consistency of the
// acceleration structures with the slots they shadow; used by tests.
func (s *contextState) checkInvariants() error {
	seen := make(map[ctxKey]bool)
	rows := newMatchRows(len(s.slots), s.index != nil)
	nt := s.cfg.TableSize
	valid := 0
	for i, e := range s.slots {
		ok := hasBit(s.valid, i)
		if s.index != nil {
			// A valid entry's back-pointer names a bucket holding its key
			// and pointing back at the slot; an empty slot has none.
			b := s.index.back[i]
			switch {
			case !ok && b != -1:
				return fmt.Errorf("index back-pointer %d set for empty slot %d", b, i)
			case ok && (b < 0 || s.index.keys[b] != e.key || int(s.index.slots[b]) != i):
				return fmt.Errorf("index back-pointer of slot %d (key %+v) out of sync: bucket %d", i, e.key, b)
			}
		}
		if i < nt && !ok && hasBit(s.pending, i) {
			return fmt.Errorf("empty table slot %d is pending", i)
		}
		if !ok {
			continue
		}
		valid++
		rows.add(byte(e.key.cur), i)
		if seen[e.key] {
			return fmt.Errorf("invariant 1 violated: duplicate key %+v", e.key)
		}
		seen[e.key] = true
		if got := s.find(e.key); got != i {
			return fmt.Errorf("find(%+v) = %d, want slot %d", e.key, got, i)
		}
		if i > 0 && i < nt && hasBit(s.valid, i-1) && e.count > s.slots[i-1].count {
			return fmt.Errorf("invariant 2 violated at slot %d: %d > %d", i, e.count, s.slots[i-1].count)
		}
	}
	if !rows.equal(&s.rows) {
		return fmt.Errorf("partial-match rows out of sync with the valid entries")
	}
	if s.index != nil && s.index.len() != valid {
		return fmt.Errorf("index holds %d keys, want %d", s.index.len(), valid)
	}
	pop := 0
	for _, w := range s.pending {
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

// Encode implements Encoder: encodeBlock over the one value.
func (e *contextEncoder) Encode(v uint64) bus.Word {
	_, _, out := e.encodeBlock([]uint64{v})
	return out
}

// encodeBlock implements blockEncoder, and is the coder's one encode
// loop: each cycle steps the sort, probes the dictionary once for both
// classification and update (updateAt), and sends code 0 for a repeat,
// the entry's codeword for a hit, or the value raw (or inverted) for a
// miss. The hot counters live in locals for the block.
func (e *contextEncoder) encodeBlock(vals []uint64) (uint64, uint64, bus.Word) {
	cb := e.t.cb
	mask := uint64(e.ch.dataMask)
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
			lastHits++ // the all-zero code moves nothing
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
	e.ops.Cycles += n
	e.ops.LastHits += lastHits
	e.ops.CodeSends += codeSends
	e.ops.RawSends += rawSends
	e.ops.PartialMatches += n * uint64(len(e.st.slots))
	e.ops.FullMatches += full
	return e.ch.accT, e.ch.accC, e.ch.state
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
		if idx == 0 {
			v = d.st.last
		} else {
			v = d.st.slots[idx-1].key.cur
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
