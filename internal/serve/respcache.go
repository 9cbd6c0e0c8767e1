package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// respCache is the serve-level response byte cache: canonical request
// key → exact marshalled 200 response. A warm hit skips re-building the
// transcoder and re-marshalling. Results are deterministic in the key
// (the same argument the eval memo rests on), so entries never expire —
// only LRU bounds apply.
//
// The LRU holds answers only, and limit counts answers. Each answer also
// keeps at most one alias: the SHA-256 digest of the latest raw request
// body that led to it, which lets a byte-identical repeat skip the
// parse/canonicalize pipeline. Two bodies can canonicalize to one key, so
// an alias is only ever a cache address; evicting an answer drops it.
type respCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element   // canonical key → answer
	aliases map[[32]byte]*list.Element // raw-body digest → answer
	lru     *list.List                 // front = most recently used
	limit   int

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type respEntry struct {
	key      string
	data     []byte
	alias    [32]byte
	hasAlias bool
}

// defaultResponseCacheEntries bounds the response cache in answers; at
// the ~600 B a typical EvalResponse marshals to, the default costs about
// 1.2 MiB of bodies.
const defaultResponseCacheEntries = 2048

func newRespCache(limit int) *respCache {
	if limit <= 0 {
		limit = defaultResponseCacheEntries
	}
	return &respCache{
		entries: map[string]*list.Element{},
		aliases: map[[32]byte]*list.Element{},
		lru:     list.New(),
		limit:   limit,
	}
}

// lookup counts a hit or a miss on e and, on a hit, marks it used.
func (c *respCache) lookup(e *list.Element, ok bool) ([]byte, bool) {
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.lru.MoveToFront(e)
	return e.Value.(*respEntry).data, true
}

// getBody looks an answer up by the digest of a raw request body.
func (c *respCache) getBody(digest [32]byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.aliases[digest]
	return c.lookup(e, ok)
}

// get looks an answer up by its canonical key and, on a hit, makes digest
// (the body that asked for it) its alias.
func (c *respCache) get(key string, digest [32]byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.setAlias(e, digest)
	}
	return c.lookup(e, ok)
}

// put stores the answer for key, with digest as its alias.
func (c *respCache) put(key string, digest [32]byte, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.lru.MoveToFront(e)
		e.Value.(*respEntry).data = data
	} else {
		e = c.lru.PushFront(&respEntry{key: key, data: data})
		c.entries[key] = e
	}
	c.setAlias(e, digest)
	for len(c.entries) > c.limit {
		victim := c.lru.Back()
		c.lru.Remove(victim)
		v := victim.Value.(*respEntry)
		delete(c.entries, v.key)
		if v.hasAlias {
			delete(c.aliases, v.alias)
		}
		c.evictions.Add(1)
	}
}

// setAlias makes digest the one alias of e, dropping e's previous alias
// and taking digest from any other answer.
func (c *respCache) setAlias(e *list.Element, digest [32]byte) {
	ent := e.Value.(*respEntry)
	if ent.hasAlias {
		if ent.alias == digest {
			return
		}
		delete(c.aliases, ent.alias)
	}
	if other, ok := c.aliases[digest]; ok {
		other.Value.(*respEntry).hasAlias = false
	}
	c.aliases[digest] = e
	ent.alias, ent.hasAlias = digest, true
}

// stats reports the lookup counters and the answers held.
func (c *respCache) stats() (hits, misses, evictions uint64, entries int) {
	c.mu.Lock()
	entries = len(c.entries)
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), entries
}
