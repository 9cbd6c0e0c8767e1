package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// respCache is the serve-level response byte cache: the SHA-256 digest of
// a raw request body → the exact marshalled 200 response it got. A hit
// skips parsing, the transcoder build, evaluation and marshalling.
// Answers are deterministic in the body, so entries never expire; only
// the LRU bound applies. A body spelled differently from a cached one
// misses here and is answered by the eval memo, whose key (transcoder
// configuration, trace identity, verify policy) already ignores spelling.
type respCache struct {
	mu      sync.Mutex
	entries map[[32]byte]*list.Element // body digest → answer
	lru     *list.List                 // front = most recently used
	limit   int

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type respEntry struct {
	digest [32]byte
	data   []byte
}

// responseCacheEntries bounds the response cache in answers; at the
// ~600 B a typical EvalResponse marshals to, that is about 1.2 MiB of
// bodies.
const responseCacheEntries = 2048

func newRespCache(limit int) *respCache {
	return &respCache{
		entries: map[[32]byte]*list.Element{},
		lru:     list.New(),
		limit:   limit,
	}
}

// get looks an answer up by the digest of its request body, counting a
// hit or a miss and, on a hit, marking it used.
func (c *respCache) get(digest [32]byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[digest]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.lru.MoveToFront(e)
	return e.Value.(*respEntry).data, true
}

// put stores the answer for digest, evicting the least recently used
// answers beyond the limit.
func (c *respCache) put(digest [32]byte, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[digest]; ok {
		c.lru.MoveToFront(e)
		e.Value.(*respEntry).data = data
		return
	}
	c.entries[digest] = c.lru.PushFront(&respEntry{digest: digest, data: data})
	for len(c.entries) > c.limit {
		victim := c.lru.Back()
		c.lru.Remove(victim)
		delete(c.entries, victim.Value.(*respEntry).digest)
		c.evictions.Add(1)
	}
}

// stats reports the lookup counters and the answers held.
func (c *respCache) stats() (hits, misses, evictions uint64, entries int) {
	c.mu.Lock()
	entries = len(c.entries)
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), entries
}
