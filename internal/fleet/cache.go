package fleet

import "container/list"

// resultCache memoizes responses of idempotent protected functions for
// one shard: a bounded LRU keyed by (module, function, args-hash). An
// idempotent function's result depends only on its arguments (the
// module's spec declares which functions qualify), so a hit can answer
// without dispatching to the handle at all. Every hit re-verifies the
// full argument words against the stored entry — an args-hash collision
// demotes to a miss — so a cached answer is byte-for-byte the answer
// the module would have produced.
//
// The cache is single-owner (one per shard goroutine) and therefore
// unlocked; the fleet merges the counters into its stats snapshots.
type resultCache struct {
	max     int
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recently used

	hits, misses, evictions uint64
}

// cacheKey identifies one memoized call site.
type cacheKey struct {
	module int
	fn     uint32
	hash   uint64
}

// cacheEntry is one memoized response with its verification args.
type cacheEntry struct {
	key  cacheKey
	args []uint32
	val  uint32
}

// newResultCache builds a cache holding at most max entries (min 1).
func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{
		max:     max,
		entries: map[cacheKey]*list.Element{},
		lru:     list.New(),
	}
}

// hashArgs is FNV-1a over the argument words (and the argument count,
// so (1) and (1,0) differ even though trailing zeros hash alike).
func hashArgs(args []uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	mix(byte(len(args)))
	for _, a := range args {
		mix(byte(a))
		mix(byte(a >> 8))
		mix(byte(a >> 16))
		mix(byte(a >> 24))
	}
	return h
}

// sameArgs verifies a hit against the caller's exact argument words.
func sameArgs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Get looks up a memoized response. A hash collision (same hash,
// different args) counts as a miss.
func (c *resultCache) Get(module int, fn uint32, args []uint32) (val uint32, ok bool) {
	key := cacheKey{module, fn, hashArgs(args)}
	el, found := c.entries[key]
	if !found {
		c.misses++
		return 0, false
	}
	ent := el.Value.(*cacheEntry)
	if !sameArgs(ent.args, args) {
		c.misses++
		return 0, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return ent.val, true
}

// Put memoizes a successful response, evicting the least recently used
// entry when full. Only errno-0 responses belong in the cache; errors
// are environmental, not functions of the arguments.
func (c *resultCache) Put(module int, fn uint32, args []uint32, val uint32) {
	key := cacheKey{module, fn, hashArgs(args)}
	if el, found := c.entries[key]; found {
		// Overwrite (hash collision slot reuse keeps the map bounded).
		ent := el.Value.(*cacheEntry)
		ent.args = append([]uint32(nil), args...)
		ent.val = val
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	ent := &cacheEntry{key: key, args: append([]uint32(nil), args...), val: val}
	c.entries[key] = c.lru.PushFront(ent)
}

// cacheStats is one snapshot of the counters, merged into ShardStats.
type cacheStats struct {
	Hits, Misses, Evictions uint64
	Live                    int
}

// Snapshot returns the current counters and live entry count.
func (c *resultCache) Snapshot() cacheStats {
	return cacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Live: c.lru.Len()}
}
