package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"buspower/internal/bus"
	"buspower/internal/coding"
)

// TestMemoStatsReadableUnderLoad is the -race regression test for the
// reporting paths: Stats must be safely readable (and wait-free) while
// many goroutines are driving Do, exactly as the serve /metrics scrape
// reads the memo and cache counters while evaluations are in flight.
func TestMemoStatsReadableUnderLoad(t *testing.T) {
	m := newSFMemo[int, int](8)
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := m.Stats()
				if st.Size < 0 || st.InFlight < 0 {
					t.Errorf("implausible snapshot: %+v", st)
					return
				}
			}
		}()
	}
	var workers sync.WaitGroup
	for w := 0; w < 8; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 500; i++ {
				key := (w + i) % 32 // force hits, misses and evictions
				if _, err := m.Do(key, func() (int, error) { return key * key, nil }); err != nil {
					t.Errorf("Do(%d): %v", key, err)
					return
				}
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	scrapes.Wait()
	st := m.Stats()
	if st.Hits+st.Misses != 8*500 {
		t.Errorf("lost counts: hits %d + misses %d != %d", st.Hits, st.Misses, 8*500)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight %d after quiesce", st.InFlight)
	}
}

// TestMemoForgetDropsCancellationErrors: a context-cancelled evaluation
// must not be served from the memo to later identical requests; Do drops
// it on its own.
func TestMemoForgetDropsCancellationErrors(t *testing.T) {
	m := newSFMemo[string, int](8)
	fail := func() (int, error) { return 0, context.Canceled }
	if _, err := m.Do("k", fail); !errors.Is(err, context.Canceled) {
		t.Fatalf("seeded error: %v", err)
	}
	v, err := m.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("recompute after a cancelled run: %d, %v (want 7, nil)", v, err)
	}
	// A deterministic error, by contrast, stays cached until it ages out.
	boom := fmt.Errorf("deterministic failure")
	if _, err := m.Do("bad", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("seeded deterministic error: %v", err)
	}
	if _, err := m.Do("bad", func() (int, error) {
		t.Error("deterministic error was recomputed")
		return 0, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("cached deterministic error: %v", err)
	}
}

// TestMemoCancelledLeaderDoesNotFailWaiters is the single-flight
// error-coalescing regression test (run under -race in CI): when the
// leader's computation dies with the leader's *own* context error, the
// concurrently coalesced waiters — whose contexts are fine — must not
// inherit that failure. Exactly one waiter re-runs the computation and
// every waiter observes its successful result; only the leader sees the
// cancellation.
func TestMemoCancelledLeaderDoesNotFailWaiters(t *testing.T) {
	m := newSFMemo[string, int](8)
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderErr = m.Do("k", func() (int, error) {
			close(leaderIn)
			<-leaderGo
			// The leader's request was cancelled mid-computation.
			return 0, context.Canceled
		})
	}()
	<-leaderIn

	const waiters = 8
	vals := make([]int, waiters)
	errs := make([]error, waiters)
	var recomputes atomic.Int64
	var wwg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wwg.Add(1)
		go func(i int) {
			defer wwg.Done()
			vals[i], errs[i] = m.Do("k", func() (int, error) {
				recomputes.Add(1)
				return 42, nil
			})
		}(i)
	}
	// Every waiter registers a hit when it coalesces onto the in-flight
	// entry; wait until all have joined before failing the leader, so the
	// test exercises live waiters rather than late arrivals.
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Hits < waiters {
		if time.Now().After(deadline) {
			t.Fatal("waiters never coalesced onto the in-flight entry")
		}
		time.Sleep(time.Millisecond)
	}
	close(leaderGo)
	wg.Wait()
	wwg.Wait()

	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("leader error %v, want its own context.Canceled", leaderErr)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil || vals[i] != 42 {
			t.Fatalf("waiter %d: got (%d, %v), want (42, nil) — leader's cancellation leaked", i, vals[i], errs[i])
		}
	}
	if n := recomputes.Load(); n != 1 {
		t.Fatalf("computation re-ran %d times after the cancelled leader, want exactly 1", n)
	}
	// The successful recomputation is cached for later callers.
	v, err := m.Do("k", func() (int, error) {
		t.Error("cached successful result was recomputed")
		return 0, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("post-recovery lookup: (%d, %v), want (42, nil)", v, err)
	}
	if st := m.Stats(); st.InFlight != 0 {
		t.Fatalf("InFlight = %d after quiesce", st.InFlight)
	}
}

// TestMemoCancelledLeaderWithNoWaiters: with nobody coalesced, a
// context-cancelled computation simply leaves no entry behind — the next
// caller for the key recomputes.
func TestMemoCancelledLeaderWithNoWaiters(t *testing.T) {
	m := newSFMemo[string, int](8)
	if _, err := m.Do("k", func() (int, error) { return 0, context.DeadlineExceeded }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader error: %v", err)
	}
	if st := m.Stats(); st.Size != 0 {
		t.Fatalf("cancelled entry retained: size %d", st.Size)
	}
	v, err := m.Do("k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("recompute after deadline error: (%d, %v), want (9, nil)", v, err)
	}
}

// TestEvalResultMemoDropsCancellation: the full evalResultKeyed path must
// recompute after a cancelled fetch instead of replaying the cancellation
// to every later request for the same key (the serving-path poisoning
// regression).
func TestEvalResultMemoDropsCancellation(t *testing.T) {
	tc, err := coding.NewStride(32, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	id := traceID{source: "stats-race-test-cancel", n: 10}
	trace := []uint64{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	// A fetch interrupted by cancellation (as when a per-request timeout
	// fires mid-trace-load) fails this call...
	_, err = evalResultKeyed(tc, id, 1, Config{}, func() ([]uint64, *bus.Meter, error) {
		return nil, nil, context.Canceled
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fetch: %v", err)
	}
	// ...but must not be replayed to the next identical request.
	res, err := evalResultKeyed(tc, id, 1, Config{}, func() ([]uint64, *bus.Meter, error) {
		return trace, nil, nil
	})
	if err != nil {
		t.Fatalf("identical request after cancellation still fails: %v", err)
	}
	if res.Raw.Cycles() == 0 {
		t.Fatal("empty result after recompute")
	}
}
