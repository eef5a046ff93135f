package backend

import (
	"container/list"
	"sync"
)

// Query-result caching.
//
// Reconstructing a trace is the expensive half of a query: pattern lookups
// across shards, Bloom probes, stitching and span materialization. Hot
// traces — incident IDs pasted into dashboards, repeated BatchQuery sets —
// are re-reconstructed from identical state. The cache keeps recent
// QueryResults keyed by trace ID and validates each entry against the
// backend's write stamp (see index.go): the entry was recorded together
// with the stamp observed *before* reconstruction, so it is served again
// only while no shard has accepted any write since. A write anywhere bumps
// its shard's epoch, and with it the stamp, and silently invalidates every
// entry recorded under the old stamp — a cached result is never served
// after a write that could affect it.
//
// Cached traces are shared: callers of Query on a cache-enabled backend must
// treat the returned Trace as read-only (every mint.Cluster analysis path
// does).

// DefaultQueryCacheSize is the query-cache capacity (entries) used when a
// caller enables caching without choosing one.
const DefaultQueryCacheSize = 4096

type cacheEntry struct {
	traceID string
	res     QueryResult
	stamp   uint64
}

// queryCache is a mutex-guarded LRU of epoch-stamped query results.
type queryCache struct {
	mu   sync.Mutex
	cap  int
	lru  *list.List // front = most recently used; values are *cacheEntry
	byID map[string]*list.Element
	// stamp is the write stamp of the current cache generation. An entry is
	// servable only when its stamp equals the live one, so as soon as a
	// lookup observes a new stamp the entire previous generation is dead
	// weight; sync drops it wholesale instead of letting unreclaimable
	// Traces linger until each ID happens to be re-queried.
	stamp uint64

	hits, misses, stale uint64
}

func newQueryCache(capacity int) *queryCache {
	if capacity <= 0 {
		capacity = DefaultQueryCacheSize
	}
	return &queryCache{cap: capacity, lru: list.New(), byID: map[string]*list.Element{}}
}

// sync advances the cache to the observed write stamp, clearing every
// entry of the previous generation. Caller holds c.mu.
func (c *queryCache) sync(stamp uint64) {
	if c.stamp == stamp {
		return
	}
	c.stale += uint64(len(c.byID))
	c.lru.Init()
	clear(c.byID)
	c.stamp = stamp
}

// get returns the cached result for traceID if it was recorded under the
// current write stamp.
func (c *queryCache) get(traceID string, stamp uint64) (QueryResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync(stamp)
	el, ok := c.byID[traceID]
	if !ok {
		c.misses++
		return QueryResult{}, false
	}
	e := el.Value.(*cacheEntry)
	if e.stamp != stamp {
		// A put that raced a write landed in the wrong generation.
		c.lru.Remove(el)
		delete(c.byID, traceID)
		c.stale++
		c.misses++
		return QueryResult{}, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e.res, true
}

// put records a result under the write stamp observed before it was
// computed; if a write raced the reconstruction, the entry is already stale
// and the next lookup discards it.
func (c *queryCache) put(traceID string, res QueryResult, stamp uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[traceID]; ok {
		e := el.Value.(*cacheEntry)
		e.res, e.stamp = res, stamp
		c.lru.MoveToFront(el)
		return
	}
	c.byID[traceID] = c.lru.PushFront(&cacheEntry{traceID: traceID, res: res, stamp: stamp})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.byID, back.Value.(*cacheEntry).traceID)
	}
}

func (c *queryCache) statsSnapshot() (hits, misses, stale uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.stale
}

// EnableQueryCache attaches an epoch-validated LRU of reconstructed query
// results (capacity entries; <= 0 takes DefaultQueryCacheSize). Configure
// before serving queries: it is not synchronized with concurrent Query
// calls. With the cache enabled, returned Traces are shared and must be
// treated as read-only.
func (b *Backend) EnableQueryCache(capacity int) {
	b.cache = newQueryCache(capacity)
}

// QueryCacheStats reports cache traffic: served hits, misses, and how many
// entries were discarded as stale by epoch validation. ok is false when no
// cache is enabled.
func (b *Backend) QueryCacheStats() (hits, misses, stale uint64, ok bool) {
	c := b.cache
	if c == nil {
		return 0, 0, 0, false
	}
	hits, misses, stale = c.statsSnapshot()
	return hits, misses, stale, true
}
