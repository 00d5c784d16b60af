package disk

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// cacheDev builds a mem-backed manager with a 20-element file (8 elements
// per block → 3 blocks) and a cache of capBlocks.
func cacheDev(t *testing.T, capBlocks int) *Manager {
	t.Helper()
	m, err := NewManagerOn(NewMemBackend(), 64)
	if err != nil {
		t.Fatal(err)
	}
	m.SetCache(capBlocks)
	w, err := m.Create("c.dat")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if err := w.Append(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCacheRepeatedProbesAreHits is the satellite requirement: repeated
// probes of the same (pinned-block-style) block must be cache hits costing
// no random read.
func TestCacheRepeatedProbesAreHits(t *testing.T) {
	m := cacheDev(t, 8)
	rr, err := m.OpenRandom("c.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close() //nolint:errcheck

	first, err := rr.Block(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := rr.Block(1)
		if err != nil {
			t.Fatal(err)
		}
		if &again[0] != &first[0] {
			t.Fatal("hit returned a different slice than the cached block")
		}
	}
	if rr.Reads() != 1 || rr.CacheHits() != 5 {
		t.Errorf("handle counters = %d reads, %d hits; want 1, 5", rr.Reads(), rr.CacheHits())
	}
	st := m.Stats()
	if st.RandReads != 1 || st.CacheHits != 5 || st.CacheMisses != 1 {
		t.Errorf("stats = %+v", st)
	}

	// A second handle over the same file shares the cache.
	rr2, err := m.OpenRandom("c.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer rr2.Close() //nolint:errcheck
	if _, err := rr2.Block(1); err != nil {
		t.Fatal(err)
	}
	if rr2.Reads() != 0 || rr2.CacheHits() != 1 {
		t.Errorf("second handle = %d reads, %d hits; want 0, 1", rr2.Reads(), rr2.CacheHits())
	}
}

// TestCacheEvictsLRU verifies the per-shard LRU discipline with a cache
// smaller than the working set.
func TestCacheEvictsLRU(t *testing.T) {
	// One element (8 bytes) of budget per shard, so the second entry in any
	// shard must evict the first.
	c := newBlockCache(cacheShards*ElementSize, ElementSize)
	c.put("f", 0, []int64{1})
	key0shard := c.shard(cacheKey{"f", 0})
	// Find another block index mapping to the same shard so the second put
	// must evict the first.
	other := int64(-1)
	for i := int64(1); i < 1024; i++ {
		if c.shard(cacheKey{"f", i}) == key0shard {
			other = i
			break
		}
	}
	if other < 0 {
		t.Fatal("no colliding block index found")
	}
	c.put("f", other, []int64{2})
	if _, ok := c.get("f", 0); ok {
		t.Error("LRU block survived eviction")
	}
	if _, ok := c.get("f", other); !ok {
		t.Error("MRU block evicted")
	}
}

// TestCacheInvalidation: removing or re-creating a file must drop its
// cached blocks, on pain of serving stale data.
func TestCacheInvalidation(t *testing.T) {
	m := cacheDev(t, 8)
	rr, err := m.OpenRandom("c.dat")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Block(0); err != nil {
		t.Fatal(err)
	}
	rr.Close() //nolint:errcheck
	if m.CacheBlocks() != 1 {
		t.Fatalf("CacheBlocks = %d, want 1", m.CacheBlocks())
	}

	// Re-create with different content: the old block must not be served.
	w, err := m.Create("c.dat")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if err := w.Append(100 + i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rr, err = m.OpenRandom("c.dat")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := rr.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 100 {
		t.Errorf("stale cache: block 0 starts at %d, want 100", vals[0])
	}
	rr.Close() //nolint:errcheck

	if err := m.Remove("c.dat"); err != nil {
		t.Fatal(err)
	}
	if m.CacheBlocks() != 0 {
		t.Errorf("CacheBlocks = %d after Remove, want 0", m.CacheBlocks())
	}
}

// TestCacheHitSkipsLatency: a hit must not pay the simulated random-read
// latency — that is the entire point of the cache under the paper's cost
// model.
func TestCacheHitSkipsLatency(t *testing.T) {
	m := cacheDev(t, 8)
	m.SetLatency(Latency{RandRead: 20 * time.Millisecond})
	rr, err := m.OpenRandom("c.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()                       //nolint:errcheck
	if _, err := rr.Block(0); err != nil { // miss: pays latency
		t.Fatal(err)
	}
	paid := m.SimulatedLatency()
	if paid < 20*time.Millisecond {
		t.Fatalf("miss paid %v, want >= 20ms", paid)
	}
	if _, err := rr.Block(0); err != nil { // hit: free
		t.Fatal(err)
	}
	if got := m.SimulatedLatency(); got != paid {
		t.Errorf("hit paid %v extra simulated latency", got-paid)
	}
}

// TestSetCacheDisables: SetCache(0) removes the cache entirely.
func TestSetCacheDisables(t *testing.T) {
	m := cacheDev(t, 8)
	rr, _ := m.OpenRandom("c.dat")
	defer rr.Close() //nolint:errcheck
	rr.Block(0)      //nolint:errcheck
	m.SetCache(0)
	rr.Block(0) //nolint:errcheck
	st := m.Stats()
	if st.RandReads != 2 || st.CacheHits != 0 {
		t.Errorf("stats after disable = %+v", st)
	}
}

// TestPartialTailCacheCoherence pins the invariant that makes caching
// partial tail blocks safe: the Writer never exposes a partial block to the
// backend before Close, and after Close the file cannot grow — so a cached
// tail can only be retired by Create's invalidation.
func TestPartialTailCacheCoherence(t *testing.T) {
	m, err := NewManagerOn(NewMemBackend(), 64)
	if err != nil {
		t.Fatal(err)
	}
	m.SetCache(8)

	w, err := m.Create("grow.dat")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 12; i++ { // block 0 full, block 1 half-staged
		if err := w.Append(i); err != nil {
			t.Fatal(err)
		}
	}
	// Mid-write, only the flushed full block is visible: the staged
	// partial tail cannot be read (and so cannot be cached) yet.
	rr, err := m.OpenRandom("grow.dat")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Count() != 8 || rr.Blocks() != 1 {
		t.Fatalf("mid-write view = %d elements in %d blocks, want 8 in 1", rr.Count(), rr.Blocks())
	}
	rr.Close() //nolint:errcheck
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// After Close the partial tail is visible, cacheable, and stable.
	rr, err = m.OpenRandom("grow.dat")
	if err != nil {
		t.Fatal(err)
	}
	tail, err := rr.Block(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 4 || tail[0] != 8 {
		t.Fatalf("tail block = %v, want [8 9 10 11]", tail)
	}
	again, err := rr.Block(1)
	if err != nil {
		t.Fatal(err)
	}
	if rr.CacheHits() != 1 || len(again) != 4 {
		t.Errorf("tail re-read: hits=%d vals=%v, want cached [8 9 10 11]", rr.CacheHits(), again)
	}
	rr.Close() //nolint:errcheck

	// Re-creating the name retires the cached tail.
	w2, err := m.Create("grow.dat")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 9; i++ {
		if err := w2.Append(100 + i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	rr, err = m.OpenRandom("grow.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close() //nolint:errcheck
	tail, err = rr.Block(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0] != 108 {
		t.Errorf("tail after re-create = %v, want [108]", tail)
	}
}

// TestCacheCapacityExact: the total byte budget must be exactly the
// requested amount, not rounded up per shard, and the resident decoded
// bytes must never exceed it.
func TestCacheCapacityExact(t *testing.T) {
	for _, capBlocks := range []int{1, 4, 17, 100} {
		budget := int64(capBlocks) * ElementSize
		c := newBlockCache(budget, ElementSize)
		var total int64
		for i := range c.shards {
			total += c.shards[i].capBytes
		}
		if total != budget {
			t.Errorf("budget=%d: shard budgets sum to %d", budget, total)
		}
		// Overfill with one-element (8-byte) entries and confirm the
		// resident count never exceeds the budget.
		for i := int64(0); i < int64(capBlocks*3); i++ {
			c.put("f", i, []int64{i})
		}
		if got := c.len(); got > capBlocks {
			t.Errorf("capBlocks=%d: %d blocks resident", capBlocks, got)
		}
	}
}

// TestReaderSizeFromHandle: a reader's count is fixed when it opens.
// Recreating a name under an open reader is unsupported (a file backend
// handle then reads the new content); on the heap store, whose handle keeps
// the old file, the reader reads exactly what it opened.
func TestReaderSizeFromHandle(t *testing.T) {
	m, err := NewManagerOn(NewMemBackend(), 64)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := m.Create("swap.dat")
	for i := int64(0); i < 16; i++ {
		w.Append(i) //nolint:errcheck
	}
	w.Close() //nolint:errcheck

	r, err := m.OpenSequential("swap.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close() //nolint:errcheck

	// Recreate the name with shorter, different content.
	w2, _ := m.Create("swap.dat")
	w2.Append(999) //nolint:errcheck
	w2.Close()     //nolint:errcheck

	if r.Count() != 16 {
		t.Fatalf("Count = %d, want 16 (old file)", r.Count())
	}
	for i := int64(0); i < 16; i++ {
		v, ok, err := r.Next()
		if err != nil || !ok || v != i {
			t.Fatalf("element %d = %d, ok=%v, err=%v", i, v, ok, err)
		}
	}
}

// TestCachePlacementRepeats: a key's shard is a pure function of (name,
// block), so two fresh managers given the same reads end with the same
// blocks in the same shards in the same recency order, and the same Stats —
// the hit and miss counts of a run do not depend on the process that ran it.
func TestCachePlacementRepeats(t *testing.T) {
	run := func() (placement [][]cacheKey, st Stats) {
		m, err := NewManagerOn(NewMemBackend(), 64)
		if err != nil {
			t.Fatal(err)
		}
		names := []string{"streams/a/p000001.dat", "streams/a/p000002.dat", "streams/b/p000001.dat"}
		for _, name := range names {
			writeFmt(t, m, name, FormatRaw, sortedVals(400)) // 50 blocks each
		}
		// 16 shards of three blocks each: most reads evict.
		m.SetCache(48)
		s0 := m.Stats()
		rng := rand.New(rand.NewSource(5))
		for _, name := range names {
			rr, err := m.OpenRandom(name)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 400; i++ {
				if _, err := rr.Block(rng.Int63n(rr.Blocks())); err != nil {
					t.Fatal(err)
				}
			}
			rr.Close() //nolint:errcheck
		}
		c := m.dev.cache.Load()
		for i := range c.shards {
			var keys []cacheKey
			for el := c.shards[i].order.Front(); el != nil; el = el.Next() {
				keys = append(keys, el.Value.(*cacheEntry).key)
			}
			placement = append(placement, keys)
		}
		return placement, m.Stats().Sub(s0)
	}
	p1, st1 := run()
	p2, st2 := run()
	if st1 != st2 {
		t.Errorf("stats differ between two runs of one read sequence:\n%+v\n%+v", st1, st2)
	}
	if st1.CacheHits == 0 || st1.CacheMisses == 0 {
		t.Fatalf("the sequence must both hit and miss to show anything: %+v", st1)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("per-shard contents differ between two runs:\n%v\n%v", p1, p2)
	}
	used := 0
	for _, keys := range p1 {
		if len(keys) > 0 {
			used++
		}
	}
	if used < len(p1)*3/4 {
		t.Errorf("only %d of %d shards hold a block: the placement does not spread", used, len(p1))
	}
}
