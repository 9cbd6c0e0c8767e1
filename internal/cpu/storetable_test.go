package cpu

import "testing"

// TestStoreTablePagesOnFirstStore: a word never stored reads 0 without
// allocating, the first store into a page allocates that page alone, and
// later stores and loads read back exactly what was stored.
func TestStoreTablePagesOnFirstStore(t *testing.T) {
	const words = DefaultMemorySize / 4
	tab := newStoreTable(words)
	pages := func() int {
		n := 0
		for _, p := range tab.pages {
			if p != nil {
				n++
			}
		}
		return n
	}
	for _, w := range []uint32{0, 1, words - 1, 5 << storePageBits} {
		if got := tab.get(w); got != 0 {
			t.Fatalf("unstored word %d reads %d", w, got)
		}
	}
	if pages() != 0 {
		t.Fatalf("loads allocated %d pages", pages())
	}
	stores := map[uint32]uint64{0: 7, 1: 9, 1<<storePageBits - 1: 11, words - 1: 13, 3 << storePageBits: 17}
	for w, c := range stores {
		tab.set(w, c)
	}
	tab.set(1, 10) // the youngest store wins
	stores[1] = 10
	if got := pages(); got != 3 {
		t.Fatalf("stores into 3 pages allocated %d", got)
	}
	for w, c := range stores {
		if got := tab.get(w); got != c {
			t.Fatalf("word %d reads %d, want %d", w, got, c)
		}
	}
	if got := tab.get(2); got != 0 {
		t.Fatalf("unstored word 2 in an allocated page reads %d", got)
	}
}

// TestSimulatorAllocatesStorePagesLazily: the simulator allocates store
// pages only for the words its program stores to.
func TestSimulatorAllocatesStorePagesLazily(t *testing.T) {
	p, err := Assemble(`
		li r1, 4096
		li r2, 0
		li r3, 2000
	loop:
		sw r2, 0(r1)
		lw r4, 0(r1)
		addi r1, r1, 4
		addi r2, r2, 1
		blt r2, r3, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimulator(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1_000_000, 0)
	allocated := 0
	for _, pg := range s.storeDone.pages {
		if pg != nil {
			allocated++
		}
	}
	// 2000 words from byte 4096 are words 1024..3023: pages 1 and 2.
	if allocated != 2 {
		t.Fatalf("%d store pages allocated, want 2", allocated)
	}
}
