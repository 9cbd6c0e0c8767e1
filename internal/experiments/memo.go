package experiments

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// MemoStats is a point-in-time snapshot of one memo's counters.
type MemoStats struct {
	// Hits counts Do calls that found an existing entry (including ones
	// that waited on an in-flight computation).
	Hits uint64
	// Misses counts Do calls that started a computation.
	Misses uint64
	// Evictions counts completed entries dropped by the LRU bound.
	Evictions uint64
	// InFlight is the number of computations currently running.
	InFlight int
	// Size is the current number of entries (in-flight included).
	Size int
}

// sfMemo is a single-flight, LRU-bounded memo: concurrent Do calls for
// the same key compute once and share the result, and the entry count is
// bounded by evicting the least-recently-used *completed* entry — an
// in-flight entry is never dropped out from under its waiters (which
// would start a second computation of the same key). This generalizes the
// raw-meter memo introduced in PR 1 to any (comparable key, value) pair;
// the raw-meter, random-trace and evaluation-result memos below are all
// instances of it.
//
// Errors are memoized alongside values, mirroring the original behavior:
// a failed computation is not retried until its entry ages out. The one
// exception is context errors (cancellation, deadline): those belong to
// the *leader's* request, not to the key, so the entry is dropped the
// moment the leader finishes and every coalesced waiter transparently
// re-runs Do — one of them becomes the new leader under its own context
// instead of all of them failing with an error their own contexts never
// produced. Other non-deterministic failures can still be dropped
// explicitly with Forget.
//
// The counters are atomics, not mu-guarded fields, so Stats is wait-free:
// a metrics scrape under load observes them without contending with (or
// being blocked behind) in-flight Do calls holding mu for eviction scans.
type sfMemo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*sfEntry[K, V]
	lru     *list.List // front = most recently used
	limit   int

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	inFlight  atomic.Int64
	size      atomic.Int64
}

type sfEntry[K comparable, V any] struct {
	ready chan struct{}
	val   V
	err   error
	// done is set under sfMemo.mu before ready is closed; only done
	// entries are eviction candidates.
	done bool
	// retry is set (under mu, before ready is closed) when the leader's
	// computation ended with a context error: the entry has already been
	// un-cached and waiters must re-run Do instead of adopting a failure
	// that belongs to the leader's request, not to the key.
	retry bool
	key   K
	elem  *list.Element
}

func newSFMemo[K comparable, V any](limit int) *sfMemo[K, V] {
	return &sfMemo[K, V]{entries: map[K]*sfEntry[K, V]{}, lru: list.New(), limit: limit}
}

// Do returns the memoized value for key, running compute (without holding
// the memo lock) if no entry exists yet. A waiter that coalesced onto a
// leader whose computation was cancelled retries (counting another hit or
// miss), so hits+misses can exceed the number of Do calls only across
// cancelled computations.
func (c *sfMemo[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.hits.Add(1)
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			<-e.ready
			if e.retry {
				// The leader was cancelled or timed out; this caller's
				// context may be fine. The entry is already gone — race to
				// become the new leader (the losers coalesce on the winner).
				continue
			}
			return e.val, e.err
		}
		c.misses.Add(1)
		c.inFlight.Add(1)
		e := &sfEntry[K, V]{ready: make(chan struct{}), key: key}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		for len(c.entries) > c.limit {
			var victim *sfEntry[K, V]
			for le := c.lru.Back(); le != nil; le = le.Prev() {
				if cand := le.Value.(*sfEntry[K, V]); cand.done {
					victim = cand
					break
				}
			}
			if victim == nil {
				// Every entry is in flight: tolerate a temporary overshoot
				// rather than evict work in progress.
				break
			}
			c.lru.Remove(victim.elem)
			delete(c.entries, victim.key)
			c.evictions.Add(1)
		}
		c.size.Store(int64(len(c.entries)))
		c.mu.Unlock()

		v, err := compute()
		c.mu.Lock()
		e.val, e.err = v, err
		e.done = true
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The leader's request died, not the computation for this key:
			// un-cache the entry so waiters retry and later callers miss,
			// instead of replaying an error their own contexts never
			// produced. The leader itself still returns its own error.
			e.retry = true
			c.lru.Remove(e.elem)
			delete(c.entries, key)
		}
		c.inFlight.Add(-1)
		c.size.Store(int64(len(c.entries)))
		c.mu.Unlock()
		close(e.ready)
		return v, err
	}
}

// Peek returns the completed entry for key without blocking and without
// starting a computation on a miss. An in-flight entry is reported as
// absent: the caller is batching misses into one grid evaluation, and
// waiting on another request's leader would serialize exactly the work
// the batch exists to fuse. A found entry counts as a hit and is touched
// in the LRU, so Peek-then-store traffic ages the cache the same way Do
// traffic does; a miss counts nothing — the caller re-enters through Do
// to publish the batched result, and that call records the miss.
func (c *sfMemo[K, V]) Peek(key K) (V, error, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.done {
		c.hits.Add(1)
		c.lru.MoveToFront(e.elem)
		return e.val, e.err, true
	}
	var zero V
	return zero, nil, false
}

// Forget drops the entry for key if its computation has completed. Do
// already un-caches context errors on its own; Forget covers any other
// failure a caller knows to be non-deterministic, which would otherwise
// be replayed to every later request for the same key until the entry
// aged out of the LRU. An in-flight entry is left alone: its waiters
// already coalesced on it, and the computing caller will decide what to
// do with the outcome.
func (c *sfMemo[K, V]) Forget(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.done {
		c.lru.Remove(e.elem)
		delete(c.entries, key)
		c.size.Store(int64(len(c.entries)))
	}
}

// Stats returns a snapshot of the memo's counters. It is wait-free (pure
// atomic loads), so reporting and metrics-scrape paths can call it at any
// rate without contending with in-flight Do calls; the counters are read
// individually, so a snapshot taken mid-burst may be slightly torn
// between fields (e.g. a hit counted whose entry-touch is not yet
// reflected elsewhere), which any monitoring consumer already tolerates.
func (c *sfMemo[K, V]) Stats() MemoStats {
	return MemoStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		InFlight:  int(c.inFlight.Load()),
		Size:      int(c.size.Load()),
	}
}

// Reset drops every completed entry and zeroes the counters, returning
// the memo to its cold state (for tests and benchmark passes that must
// start cold). In-flight entries are kept so their waiters still coalesce.
func (c *sfMemo[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if e.done {
			c.lru.Remove(e.elem)
			delete(c.entries, k)
		}
	}
	c.size.Store(int64(len(c.entries)))
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}
