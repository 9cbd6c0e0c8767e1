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
