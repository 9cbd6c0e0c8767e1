package coding

import (
	"math/rand"
	"testing"
)

// TestCtxIndexMatchesMap drives a ctxIndex and a reference key ↔ slot
// bijection through the same randomized put/remove/swap/move workload —
// the churn the dictionary FSMs produce, up to every slot occupied — and
// checks every lookup, every back-pointer and the size as it goes.
func TestCtxIndexMatchesMap(t *testing.T) {
	const capacity = 64
	rng := rand.New(rand.NewSource(1))
	ix := newCtxIndex(capacity)
	ref := make(map[ctxKey]int)
	var at [capacity]*ctxKey // slot → key, nil when empty

	// A small key universe forces frequent reuse of deleted keys; keys
	// cluster on the low byte to stress probe chains.
	randKey := func() ctxKey {
		return ctxKey{prev: uint64(rng.Intn(4)), cur: uint64(rng.Intn(96))}
	}
	check := func(step int) {
		t.Helper()
		if ix.len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, ix.len(), len(ref))
		}
		for k, slot := range ref {
			if got := ix.get(k); got != slot {
				t.Fatalf("step %d: get(%+v) = %d, want %d", step, k, got, slot)
			}
		}
		for slot, k := range at {
			b := ix.back[slot]
			switch {
			case k == nil && b != -1:
				t.Fatalf("step %d: empty slot %d has back-pointer %d", step, slot, b)
			case k != nil && (b < 0 || ix.keys[b] != *k || int(ix.slots[b]) != slot):
				t.Fatalf("step %d: back-pointer of slot %d out of sync", step, slot)
			}
		}
	}

	for step := 0; step < 20000; step++ {
		a, b := rng.Intn(capacity), rng.Intn(capacity)
		switch op := rng.Intn(4); {
		case op == 0 && at[a] == nil:
			k := randKey()
			if _, ok := ref[k]; ok {
				continue
			}
			ix.put(k, a)
			ref[k], at[a] = a, &k
		case op == 1 && at[a] != nil:
			ix.remove(a)
			delete(ref, *at[a])
			at[a] = nil
		case op == 2:
			ix.swap(a, b)
			at[a], at[b] = at[b], at[a]
			for _, s := range []int{a, b} {
				if at[s] != nil {
					ref[*at[s]] = s
				}
			}
		case op == 3 && at[a] != nil && at[b] == nil:
			ix.move(a, b)
			at[a], at[b] = nil, at[a]
			ref[*at[b]] = b
		}
		if step%250 == 0 {
			check(step)
		}
	}
	check(-1)

	ix.clear()
	if ix.len() != 0 {
		t.Fatalf("len after clear = %d", ix.len())
	}
	for k := range ref {
		if got := ix.get(k); got != -1 {
			t.Fatalf("get(%+v) after clear = %d", k, got)
		}
	}
}

// TestCtxIndexAbsentKey exercises misses on an index with long probe
// chains (every key hashed into a quarter-full table), then removes every
// key by slot.
func TestCtxIndexAbsentKey(t *testing.T) {
	ix := newCtxIndex(16)
	for i := 0; i < 16; i++ {
		ix.put(ctxKey{cur: uint64(i)}, i)
	}
	for i := 16; i < 64; i++ {
		if got := ix.get(ctxKey{cur: uint64(i)}); got != -1 {
			t.Fatalf("get(absent %d) = %d", i, got)
		}
	}
	for i := 0; i < 16; i++ {
		ix.remove(i)
		for j := i + 1; j < 16; j++ {
			if got := ix.get(ctxKey{cur: uint64(j)}); got != j {
				t.Fatalf("after removing slots ≤ %d: get(%d) = %d", i, j, got)
			}
		}
	}
	if ix.len() != 0 {
		t.Fatalf("len after removing all = %d", ix.len())
	}
}

// dictTestSlots are the dictionary sizes the partial-match row tests
// cover: one slot, both sides of the 64-slot word boundary and of two
// words, and both sides of the rowsMaxSlots crossover.
var dictTestSlots = []int{1, 63, 64, 65, 128, 129, rowsMaxSlots, rowsMaxSlots + 1}

// dictTestKey draws keys from a small universe whose low bytes collide,
// so rows hold several slots and probes walk past non-matching ones.
func dictTestKey(rng *rand.Rand) ctxKey {
	return ctxKey{prev: uint64(rng.Intn(3)), cur: uint64(rng.Intn(24)) | uint64(rng.Intn(8))<<8}
}

// TestContextRowsMatchReference drives contextState through randomized
// shift-register inserts (each evicting, and promoting or dropping, the
// oldest register entry), sort swaps and sort passes, with and without
// the hash index, and after every operation compares find and the
// modeled full-match counts with a reference rebuilt from the entry
// arrays: a slice of the valid keys by slot and a map from key to slot.
func TestContextRowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, slots := range dictTestSlots {
		if slots < 2 {
			continue // a Context needs a table slot and a register slot
		}
		sr := min(8, slots/2)
		cfg := ContextConfig{Width: 16, TableSize: slots - sr, ShiftEntries: sr, DividePeriod: 97, TransitionBased: true}
		for _, indexed := range []bool{false, true} {
			s := newContextStateIndexed(cfg, indexed)
			for op := 0; op < 10*slots+300; op++ {
				switch r := rng.Intn(10); {
				case r < 6:
					key := dictTestKey(rng)
					if s.find(key) >= 0 {
						continue
					}
					// Random counts make the evicted entry win or lose
					// its promotion against the table's bottom entry.
					s.slots[cfg.TableSize+s.srHead].count = uint32(rng.Intn(6))
					s.insertSR(key)
				case r < 9 && cfg.TableSize > 1:
					s.swap(1 + rng.Intn(cfg.TableSize-1))
				case r == 9 && op%50 == 0:
					s.reset()
				default:
					s.step()
				}
				checkContextReference(t, &s, slots, indexed, op, rng)
			}
		}
	}
}

func checkContextReference(t *testing.T, s *contextState, slots int, indexed bool, op int, rng *rand.Rand) {
	t.Helper()
	keys := make([]*ctxKey, 0, slots)
	for i := range s.slots {
		var k *ctxKey
		if hasBit(s.valid, i) {
			k = &s.slots[i].key
		}
		keys = append(keys, k)
	}
	ref := make(map[ctxKey]int)
	var counts [256]uint64
	for slot, k := range keys {
		if k != nil {
			ref[*k] = slot
			counts[byte(k.cur)]++
		}
	}
	for b := range counts {
		if got := s.rows.count(byte(b)); got != counts[b] {
			t.Fatalf("%d slots indexed=%v op %d: row %#x holds %d slots, reference %d", slots, indexed, op, b, got, counts[b])
		}
	}
	for k, slot := range ref {
		if got := s.find(k); got != slot {
			t.Fatalf("%d slots indexed=%v op %d: find(%+v) = %d, reference %d", slots, indexed, op, k, got, slot)
		}
	}
	for i := 0; i < 8; i++ {
		k := dictTestKey(rng)
		want, ok := ref[k]
		if !ok {
			want = -1
		}
		if got := s.find(k); got != want {
			t.Fatalf("%d slots indexed=%v op %d: find(%+v) = %d, reference %d", slots, indexed, op, k, got, want)
		}
	}
}

// TestWindowRowsMatchReference is the Window counterpart: randomized
// miss inserts (each evicting the oldest entry, starting from the
// all-zero fill) with and without the hash index, compared after every
// insert with a reference slice of the ring and a map from value to its
// lowest slot — the linear scan's answer.
func TestWindowRowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range dictTestSlots {
		for _, indexed := range []bool{false, true} {
			s := newWindowStateIndexed(n, indexed)
			for op := 0; op < 6*n+300; op++ {
				if op%(4*n+100) == 0 {
					s.reset()
				}
				v := dictTestKey(rng).cur
				if s.find(v) < 0 {
					s.insert(v)
				}
				ref := make(map[uint64]int)
				var counts [256]uint64
				for slot, e := range s.entries {
					if _, dup := ref[e]; !dup {
						ref[e] = slot
					}
					counts[byte(e)]++
				}
				for b := range counts {
					if got := s.rows.count(byte(b)); got != counts[b] {
						t.Fatalf("window-%d indexed=%v op %d: row %#x holds %d slots, reference %d", n, indexed, op, b, got, counts[b])
					}
				}
				for i := 0; i < 8; i++ {
					v := dictTestKey(rng).cur
					want, ok := ref[v]
					if !ok {
						want = -1
					}
					if got := s.find(v); got != want {
						t.Fatalf("window-%d indexed=%v op %d: find(%#x) = %d, reference %d", n, indexed, op, v, got, want)
					}
				}
				if err := s.checkInvariants(); err != nil {
					t.Fatalf("window-%d indexed=%v op %d: %v", n, indexed, op, err)
				}
			}
		}
	}
}
