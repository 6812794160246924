package fleet

import "testing"

func TestCacheHitMissAndCounters(t *testing.T) {
	c := newResultCache(4)
	if _, ok := c.Get(1, 2, []uint32{41}); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, 2, []uint32{41}, 42)
	v, ok := c.Get(1, 2, []uint32{41})
	if !ok || v != 42 {
		t.Fatalf("Get = (%d, %v), want (42, true)", v, ok)
	}
	// Different args, function, and module are all distinct entries.
	if _, ok := c.Get(1, 2, []uint32{40}); ok {
		t.Fatal("hit with different args")
	}
	if _, ok := c.Get(1, 3, []uint32{41}); ok {
		t.Fatal("hit with different funcID")
	}
	if _, ok := c.Get(2, 2, []uint32{41}); ok {
		t.Fatal("hit with different module")
	}
	if st := c.Snapshot(); st != (cacheStats{Hits: 1, Misses: 4, Live: 1}) {
		t.Fatalf("stats = %+v, want 1 hit, 4 misses, 1 live", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.Put(1, 1, []uint32{1}, 2)
	c.Put(1, 1, []uint32{2}, 3)
	// Touch {1} so {2} becomes the LRU victim.
	if _, ok := c.Get(1, 1, []uint32{1}); !ok {
		t.Fatal("expected hit on {1}")
	}
	c.Put(1, 1, []uint32{3}, 4)
	if _, ok := c.Get(1, 1, []uint32{2}); ok {
		t.Fatal("LRU victim {2} still cached")
	}
	if _, ok := c.Get(1, 1, []uint32{1}); !ok {
		t.Fatal("recently used {1} evicted")
	}
	if _, ok := c.Get(1, 1, []uint32{3}); !ok {
		t.Fatal("fresh {3} missing")
	}
	if c.Snapshot().Live != 2 {
		t.Fatalf("Len = %d, want 2", c.Snapshot().Live)
	}
	if ev := c.Snapshot().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestCacheArgCountMatters(t *testing.T) {
	c := newResultCache(8)
	c.Put(1, 1, []uint32{1}, 10)
	if _, ok := c.Get(1, 1, []uint32{1, 0}); ok {
		t.Fatal("(1) and (1,0) must be distinct call sites")
	}
	if _, ok := c.Get(1, 1, nil); ok {
		t.Fatal("() and (1) must be distinct call sites")
	}
}

func TestCachePutOverwrites(t *testing.T) {
	c := newResultCache(2)
	c.Put(1, 1, []uint32{7}, 8)
	c.Put(1, 1, []uint32{7}, 9)
	if v, ok := c.Get(1, 1, []uint32{7}); !ok || v != 9 {
		t.Fatalf("Get after overwrite = (%d, %v), want (9, true)", v, ok)
	}
	if c.Snapshot().Live != 1 {
		t.Fatalf("overwrite grew the cache: Len = %d", c.Snapshot().Live)
	}
}

func TestHashArgsSpread(t *testing.T) {
	seen := map[uint64][]uint32{}
	for i := uint32(0); i < 1000; i++ {
		args := []uint32{i, i * 3}
		h := hashArgs(args)
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %v and %v", prev, args)
		}
		seen[h] = args
	}
}

func TestCacheMinCapacity(t *testing.T) {
	c := newResultCache(0) // clamped to 1
	c.Put(1, 1, []uint32{1}, 2)
	c.Put(1, 1, []uint32{2}, 3)
	if c.Snapshot().Live != 1 {
		t.Fatalf("Len = %d, want 1", c.Snapshot().Live)
	}
}
