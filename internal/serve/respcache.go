package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
)

// respCache is the serve-level response byte cache: canonical request
// key → exact marshalled 200 response. A warm hit skips re-building the
// transcoder and re-marshalling. Results are deterministic in the key
// (the same argument the eval memo rests on), so entries never expire —
// only LRU bounds apply.
type respCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	limit   int

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type respEntry struct {
	key  string
	data []byte
}

// defaultResponseCacheEntries bounds the response cache; at the ~600 B
// a typical EvalResponse marshals to, the default costs a few MiB.
const defaultResponseCacheEntries = 4096

func newRespCache(limit int) *respCache {
	if limit <= 0 {
		limit = defaultResponseCacheEntries
	}
	return &respCache{entries: map[string]*list.Element{}, lru: list.New(), limit: limit}
}

func (c *respCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.hits.Add(1)
		c.lru.MoveToFront(e)
		return e.Value.(*respEntry).data, true
	}
	c.misses.Add(1)
	return nil, false
}

func (c *respCache) put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e)
		e.Value.(*respEntry).data = data
		return
	}
	c.entries[key] = c.lru.PushFront(&respEntry{key: key, data: data})
	for len(c.entries) > c.limit {
		victim := c.lru.Back()
		c.lru.Remove(victim)
		delete(c.entries, victim.Value.(*respEntry).key)
		c.evictions.Add(1)
	}
}

func (c *respCache) stats() (hits, misses, evictions uint64, entries int) {
	c.mu.Lock()
	entries = len(c.entries)
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), entries
}

// evalCacheKey addresses a canonical eval request in the response cache.
// The prefix keeps it apart from the raw-body aliases.
func evalCacheKey(key string) string { return "eval:" + key }

// bodyCacheKey addresses a raw request body in the response cache: an
// alias entry for the canonical key that lets byte-identical repeats
// skip the parse/canonicalize pipeline. Two bodies can canonicalize to
// one key, so an alias is only ever a cache address.
func bodyCacheKey(body []byte) string {
	sum := sha256.Sum256(body)
	return "body:" + hex.EncodeToString(sum[:])
}
