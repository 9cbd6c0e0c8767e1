package coding

import (
	"math/bits"
	"slices"
)

// The dictionary coders (Window and Context) find entries the way their
// selective-precharge CAM does (§5.3.3): a probe first compares every
// entry's low 8 bits, and only the partial matches charge a full
// compare. matchRows is that partial-match stage as a data structure,
// and it is the dictionary's lookup: row b is a bitmap of the slots
// whose (valid) key has low byte b, so a probe walks only its row's set
// bits, and the row's population is the modeled FullMatches count. An
// entry entering, leaving or moving between slots sets, clears or
// toggles bits of its own row.
//
// Row walks slow down as rows fill: real traces concentrate their low
// bytes (aligned addresses, small integers), so a large dictionary's
// busiest rows hold dozens to hundreds of slots. Above rowsMaxSlots a
// dictionary therefore finds keys through a ctxIndex instead, and its
// rows shrink to their populations (counted rows): nothing walks them,
// and a count is one load rather than a popcount over slots/64 words.
//
// rowsMaxSlots is the crossover, measured on the Window and Context
// encoders over the li register and swim and gcc memory traces: at 64
// and 128 slots the row walk beat the hash probe by up to 2x on
// windows, at 192-256 slots the two were within noise, and at 384-512
// slots hashing won by 1.3-1.7x. At 256 slots a row is four words.
const rowsMaxSlots = 256

type matchRows struct {
	words int      // uint64 words per row
	bits  []uint64 // row b is bits[b*words : (b+1)*words]; nil when counted
	pop   []uint32 // row populations when counted, else nil
}

// newMatchRows returns empty rows over slots 0..slots-1: bitmaps, or
// populations only when counted.
func newMatchRows(slots int, counted bool) matchRows {
	if counted {
		return matchRows{pop: make([]uint32, 256)}
	}
	words := (slots + 63) / 64
	return matchRows{words: words, bits: make([]uint64, 256*words)}
}

// row returns the slots whose key has low byte b (bitmap rows only).
func (r *matchRows) row(b byte) []uint64 {
	o := int(b) * r.words
	return r.bits[o : o+r.words : o+r.words]
}

// add files an entry with low byte b at the empty slot.
func (r *matchRows) add(b byte, slot int) {
	if r.pop != nil {
		r.pop[b]++
		return
	}
	r.bits[int(b)*r.words+slot>>6] |= 1 << (slot & 63)
}

// remove drops the entry with low byte b from slot.
func (r *matchRows) remove(b byte, slot int) {
	if r.pop != nil {
		r.pop[b]--
		return
	}
	r.bits[int(b)*r.words+slot>>6] &^= 1 << (slot & 63)
}

// move relabels an entry of row b from slot from to slot to.
func (r *matchRows) move(b byte, from, to int) {
	if r.pop != nil {
		return
	}
	o := int(b) * r.words
	r.bits[o+from>>6] ^= 1 << (from & 63)
	r.bits[o+to>>6] ^= 1 << (to & 63)
}

// count returns the population of row b: the full matches of a probe
// for a key with low byte b.
func (r *matchRows) count(b byte) uint64 {
	if r.pop != nil {
		return uint64(r.pop[b])
	}
	var n int
	for _, w := range r.row(b) {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

func (r *matchRows) clear() {
	clear(r.bits)
	clear(r.pop)
}

// equal reports whether r and o hold the same rows.
func (r *matchRows) equal(o *matchRows) bool {
	return slices.Equal(r.bits, o.bits) && slices.Equal(r.pop, o.pop)
}

// ctxIndex is a small open-addressing hash index from ctxKey to a slot
// number, used only by dictionaries above rowsMaxSlots. It is linear
// probing at ≤¼ load, with the classical backward-shift deletion so probe chains
// never accumulate tombstones.
//
// Its callers index fixed-size hardware dictionaries whose slots each
// hold at most one key, and whose keys each sit in at most one slot
// (Invariant 1). So besides key → slot the index keeps a slot → bucket
// back-pointer per slot: an entry leaving its slot is deleted without
// probing for its key, and an entry moving between slots (a sort swap, a
// shift-register promotion) relabels its bucket in place instead of
// being deleted and re-inserted (re-hashed). Capacity is the slot count
// fixed at construction.
type ctxIndex struct {
	keys  []ctxKey
	slots []int32 // bucket → slot; -1 marks a free bucket
	back  []int32 // slot → bucket; -1 marks a slot with no key
	mask  uint32
	n     int
}

// newCtxIndex returns an index over slots 0..slots-1, at ≤¼ load when
// every slot holds a key.
func newCtxIndex(slots int) *ctxIndex {
	size := 16
	for size < 4*slots {
		size <<= 1
	}
	ix := &ctxIndex{
		keys:  make([]ctxKey, size),
		slots: make([]int32, size),
		back:  make([]int32, slots),
		mask:  uint32(size - 1),
	}
	ix.clear()
	return ix
}

// hashCtxKey mixes both words of the key (splitmix64-style finalizer);
// value-based keys leave prev zero, which costs one dead multiply.
func hashCtxKey(k ctxKey) uint64 {
	h := k.cur*0x9E3779B97F4A7C15 ^ bits.RotateLeft64(k.prev*0xBF58476D1CE4E5B9, 31)
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// get returns the slot holding k, or -1.
func (ix *ctxIndex) get(k ctxKey) int {
	i := uint32(hashCtxKey(k)) & ix.mask
	for ix.slots[i] >= 0 {
		if ix.keys[i] == k {
			return int(ix.slots[i])
		}
		i = (i + 1) & ix.mask
	}
	return -1
}

// put records k at slot; k must be absent and slot empty.
func (ix *ctxIndex) put(k ctxKey, slot int) {
	i := uint32(hashCtxKey(k)) & ix.mask
	for ix.slots[i] >= 0 {
		i = (i + 1) & ix.mask
	}
	ix.keys[i] = k
	ix.slots[i] = int32(slot)
	ix.back[slot] = int32(i)
	ix.n++
}

// swap exchanges the keys of slots a and b (either may be empty).
func (ix *ctxIndex) swap(a, b int) {
	ba, bb := ix.back[a], ix.back[b]
	if ba >= 0 {
		ix.slots[ba] = int32(b)
	}
	if bb >= 0 {
		ix.slots[bb] = int32(a)
	}
	ix.back[a], ix.back[b] = bb, ba
}

// move relabels the key of slot from to the empty slot to.
func (ix *ctxIndex) move(from, to int) {
	i := ix.back[from]
	ix.slots[i] = int32(to)
	ix.back[to] = i
	ix.back[from] = -1
}

// remove deletes the key held by slot, backward-shifting the probe chain
// behind it (and the back-pointers of the keys it shifts) so that every
// remaining key stays reachable from its home bucket.
func (ix *ctxIndex) remove(slot int) {
	mask := ix.mask
	i := uint32(ix.back[slot])
	ix.back[slot] = -1
	ix.n--
	j := i
	for {
		ix.slots[i] = -1
		for {
			j = (j + 1) & mask
			if ix.slots[j] < 0 {
				return
			}
			home := uint32(hashCtxKey(ix.keys[j])) & mask
			// keys[j] may fill the gap at i iff its home bucket does not
			// lie cyclically within (i, j] — otherwise moving it would
			// break its own probe chain.
			if (j-home)&mask >= (j-i)&mask {
				break
			}
		}
		ix.keys[i] = ix.keys[j]
		ix.slots[i] = ix.slots[j]
		ix.back[ix.slots[i]] = int32(i)
		i = j
	}
}

// len returns the number of stored keys.
func (ix *ctxIndex) len() int { return ix.n }

// clear removes every key.
func (ix *ctxIndex) clear() {
	for i := range ix.slots {
		ix.slots[i] = -1
	}
	for i := range ix.back {
		ix.back[i] = -1
	}
	ix.n = 0
}
