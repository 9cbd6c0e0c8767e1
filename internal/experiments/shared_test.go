package experiments

import (
	"sync"
	"sync/atomic"
	"testing"

	"buspower/internal/bus"
	"buspower/internal/coding"
)

func testMeter(v uint64) func() (*bus.Meter, error) {
	return func() (*bus.Meter, error) {
		return coding.MeasureRawValues(busWidth, []uint64{v, v ^ 0xFF}), nil
	}
}

func memoKey(i int) traceID { return traceID{source: "k", n: i} }

// The memo must stay bounded, evicting least-recently-used entries one at
// a time instead of flushing wholesale.
func TestMemoEvictsLRU(t *testing.T) {
	memo := newSFMemo[traceID, *bus.Meter](4)
	for i := 0; i < 10; i++ {
		if _, err := memo.Do(memoKey(i+1), testMeter(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	memo.mu.Lock()
	size := len(memo.entries)
	_, oldest := memo.entries[memoKey(1)]
	_, newest := memo.entries[memoKey(10)]
	memo.mu.Unlock()
	if size > 4 {
		t.Fatalf("memo grew to %d entries, limit 4", size)
	}
	if oldest {
		t.Error("least-recently-used entry survived eviction")
	}
	if !newest {
		t.Error("most-recent entry was evicted")
	}
	st := memo.Stats()
	if st.Misses != 10 || st.Hits != 0 || st.Evictions != 6 || st.Size != 4 || st.InFlight != 0 {
		t.Fatalf("stats %+v, want 10 misses / 0 hits / 6 evictions / size 4 / 0 in flight", st)
	}
}

// An in-flight computation must never be evicted: while one goroutine is
// computing a key, a flood of other keys overflows the memo, and a second
// caller for the in-flight key must still coalesce onto the first
// computation rather than start its own.
func TestMemoKeepsInFlightEntries(t *testing.T) {
	memo := newSFMemo[traceID, *bus.Meter](2)
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	slowKey := memoKey(999)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		memo.Do(slowKey, func() (*bus.Meter, error) {
			calls.Add(1)
			close(started)
			<-release
			return coding.MeasureRawValues(busWidth, []uint64{1}), nil
		})
	}()
	<-started

	if st := memo.Stats(); st.InFlight != 1 {
		t.Fatalf("InFlight = %d during computation, want 1", st.InFlight)
	}

	// Overflow the memo while slowKey is still computing.
	for i := 0; i < 8; i++ {
		if _, err := memo.Do(memoKey(i+1), testMeter(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	memo.mu.Lock()
	_, stillThere := memo.entries[slowKey]
	memo.mu.Unlock()
	if !stillThere {
		t.Fatal("in-flight entry was evicted")
	}

	// A second caller for slowKey must wait for the first computation,
	// not run its own.
	wg.Add(1)
	go func() {
		defer wg.Done()
		memo.Do(slowKey, func() (*bus.Meter, error) {
			calls.Add(1)
			return coding.MeasureRawValues(busWidth, []uint64{2}), nil
		})
	}()
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("key computed %d times, want 1", n)
	}
}

// Touching an entry refreshes its recency: re-reading the oldest key
// before overflowing must keep it alive while a younger untouched key is
// evicted instead.
func TestMemoTouchRefreshesRecency(t *testing.T) {
	memo := newSFMemo[traceID, *bus.Meter](3)
	for i := 0; i < 3; i++ {
		if _, err := memo.Do(memoKey(i+1), testMeter(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 1 (the oldest), then insert a fourth key: key 2 is now
	// the LRU and must be the one evicted.
	if _, err := memo.Do(memoKey(1), testMeter(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := memo.Do(memoKey(4), testMeter(3)); err != nil {
		t.Fatal(err)
	}
	memo.mu.Lock()
	_, touched := memo.entries[memoKey(1)]
	_, lru := memo.entries[memoKey(2)]
	memo.mu.Unlock()
	if !touched {
		t.Error("recently touched entry was evicted")
	}
	if lru {
		t.Error("least-recently-used entry survived")
	}
}

// TestMemoSingleFlightUnderContention hammers a small set of keys from
// many goroutines (run under -race in CI): every key must be computed
// exactly once even while LRU pressure from disjoint keys churns the
// memo, and all callers for a key must observe the same value.
func TestMemoSingleFlightUnderContention(t *testing.T) {
	memo := newSFMemo[int, int](4)
	const keys = 8
	const callers = 6
	var computed [keys]atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for k := 0; k < keys; k++ {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				<-start
				v, err := memo.Do(k, func() (int, error) {
					computed[k].Add(1)
					return k * 100, nil
				})
				if err != nil || v != k*100 {
					t.Errorf("key %d: got (%d, %v), want (%d, nil)", k, v, err, k*100)
				}
			}(k)
		}
	}
	close(start)
	wg.Wait()
	for k := 0; k < keys; k++ {
		// Keys may age out between caller waves and be recomputed, but a
		// computation can never run concurrently with itself — with all
		// callers racing through close(start), each key computes once per
		// residency. The hard invariant: at least 1 (it ran), and never
		// more than the caller count (no free-for-all).
		if n := computed[k].Load(); n < 1 || n > callers {
			t.Errorf("key %d computed %d times", k, n)
		}
	}
	st := memo.Stats()
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after all callers returned", st.InFlight)
	}
	if st.Hits+st.Misses != keys*callers {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, keys*callers)
	}
}

// TestMemoResetKeepsInFlight pins Reset's contract: completed entries and
// counters go, an in-flight computation stays so its waiters coalesce.
func TestMemoResetKeepsInFlight(t *testing.T) {
	memo := newSFMemo[traceID, *bus.Meter](8)
	if _, err := memo.Do(memoKey(1), testMeter(1)); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		memo.Do(memoKey(2), func() (*bus.Meter, error) {
			close(started)
			<-release
			return coding.MeasureRawValues(busWidth, []uint64{1}), nil
		})
	}()
	<-started
	memo.Reset()
	st := memo.Stats()
	if st.Size != 1 || st.InFlight != 1 {
		t.Fatalf("after Reset: size %d in-flight %d, want 1 and 1", st.Size, st.InFlight)
	}
	if st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 {
		t.Fatalf("after Reset: counters %+v not zeroed", st)
	}
	close(release)
	wg.Wait()
}

// TestEvalResultMemoizes exercises the package-level result memo through
// evalResult: a second call with a rebuilt identical transcoder must hit
// (keyed on the canonical config, not the instance), the retained Result
// must be detached from the evaluator's reused coded meter, and a
// different Λ or verify policy must miss.
func TestEvalResultMemoizes(t *testing.T) {
	ClearEvalMemo()
	t.Cleanup(ClearEvalMemo)
	vals := make([]uint64, 2000)
	for i := range vals {
		vals[i] = uint64(i*2654435761) >> 16
	}
	raw := coding.MeasureRawValues(busWidth, vals)
	id := traceID{source: "test-eval-memo"}
	cfg := Config{}
	build := func() coding.Transcoder {
		win, err := coding.NewWindow(busWidth, 8, evalLambda)
		if err != nil {
			t.Fatal(err)
		}
		return win
	}
	before := EvalMemoStats()
	a, err := evalResult(build(), id, vals, evalLambda, raw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate something else through the same evaluator: if the memoized
	// Result still referenced ev's reused coded meter, this would corrupt it.
	other, err := coding.NewStride(busWidth, 2, evalLambda)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalResult(other, id, vals, evalLambda, raw, cfg); err != nil {
		t.Fatal(err)
	}
	b, err := evalResult(build(), id, vals, evalLambda, raw, cfg) // rebuilt instance: must hit
	if err != nil {
		t.Fatal(err)
	}
	if a.Coded != b.Coded {
		t.Fatal("memo hit returned a different Result than the original computation")
	}
	if a.CodedCost() != b.CodedCost() {
		t.Fatalf("retained Result was corrupted by later evaluator use: %v != %v", b.CodedCost(), a.CodedCost())
	}
	st := EvalMemoStats()
	if hits := st.Hits - before.Hits; hits != 1 {
		t.Fatalf("got %d hits, want exactly 1 (the rebuilt-instance call)", hits)
	}
	// A different metered Λ shares the same entry — encoder output never
	// depends on the Λ the meters are read at — and the retrieved Result
	// is stamped with the requested Λ.
	atTwo, err := evalResult(build(), id, vals, 2.0, raw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if atTwo.Lambda != 2.0 {
		t.Fatalf("Λ=2 retrieval carries Λ=%g", atTwo.Lambda)
	}
	if atTwo.Coded != a.Coded {
		t.Fatal("Λ=2 retrieval recomputed instead of sharing the Λ=1 encode")
	}
	if st2 := EvalMemoStats(); st2.Hits != st.Hits+1 {
		t.Fatalf("Λ change missed the memo (hits %d -> %d)", st.Hits, st2.Hits)
	}
	// A different verify policy is still a distinct entry.
	st = EvalMemoStats()
	cfgSampled := Config{Verify: coding.VerifySampled(0)}
	if _, err := evalResult(build(), id, vals, evalLambda, raw, cfgSampled); err != nil {
		t.Fatal(err)
	}
	if st2 := EvalMemoStats(); st2.Hits != st.Hits {
		t.Fatalf("verify-policy change hit the memo (hits %d -> %d)", st.Hits, st2.Hits)
	}
}

// TestRandomBundleMemoizes: the random comparison trace and its raw meter
// are generated once per length and shared thereafter.
func TestRandomBundleMemoizes(t *testing.T) {
	a := randomBundleFor(1234)
	b := randomBundleFor(1234)
	if &a.trace[0] != &b.trace[0] || a.meter != b.meter {
		t.Fatal("randomBundleFor regenerated the trace or meter for the same length")
	}
	if len(a.trace) != 1234 {
		t.Fatalf("trace length %d, want 1234", len(a.trace))
	}
	c := randomBundleFor(999)
	if len(c.trace) != 999 || a.meter == c.meter {
		t.Fatal("different lengths must be distinct entries")
	}
}

// TestTapeMemoGrowsGeometrically: the stride-tape memo keeps one tape per
// (trace, width), serves shallower banks from it, rebuilds a too-shallow
// tape at max(k, 2·depth) capped at the tape record's limit, resets with
// ClearEvalMemo, and is bypassed for inline request traces.
func TestTapeMemoGrowsGeometrically(t *testing.T) {
	ClearEvalMemo()
	defer ClearEvalMemo()
	tr := make([]uint64, 500)
	for i := range tr {
		tr[i] = uint64(i * i % 97)
	}
	tapes := gridOptionsFor(memoKey(7), tr).Tapes
	depth := func(k int) (*coding.StrideTape, int) {
		tp := tapes(busWidth, k)
		return tp, tp.Depth()
	}
	if _, d := depth(3); d != 3 {
		t.Fatalf("first build depth %d, want 3", d)
	}
	a, d := depth(4)
	if d != 6 {
		t.Fatalf("rebuild depth %d, want max(4, 2·3) = 6", d)
	}
	if b, _ := depth(5); b != a {
		t.Error("a bank within the memoized depth rebuilt the tape")
	}
	if _, d := depth(9); d != 12 {
		t.Fatalf("rebuild depth %d, want max(9, 2·6) = 12", d)
	}
	if _, d := depth(200); d != 200 {
		t.Fatalf("rebuild depth %d, want 200", d)
	}
	if _, d := depth(201); d != 250 {
		t.Fatalf("rebuild depth %d, want the 250-stride cap", d)
	}
	ClearEvalMemo()
	if _, d := depth(2); d != 2 {
		t.Fatalf("depth %d after ClearEvalMemo, want a fresh depth-2 build", d)
	}

	inline := traceID{source: inlineSourcePrefix + "abc/w32", n: len(tr)}
	if opts := gridOptionsFor(inline, tr); opts.Tapes != nil {
		t.Error("inline traces must not populate the stride-tape memo")
	}
}
