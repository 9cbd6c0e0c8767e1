package coding

import "math/bits"

// ctxIndex is a small open-addressing hash index from ctxKey to a slot
// number, replacing map[ctxKey]int in the per-cycle encode/decode paths.
// The dictionary FSMs probe it every bus cycle, where the runtime map's
// generic machinery — 128-bit key hashing and bucket group probing —
// dominated the encode profile. This index is linear probing at ≤¼ load,
// with the classical backward-shift deletion so probe chains never
// accumulate tombstones.
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
