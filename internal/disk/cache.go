package disk

import (
	"container/list"
	"sync"
)

// blockCache is a sharded LRU cache of checked block frames, keyed by (file,
// block index). It sits between the Manager's random-read path and the
// backend: a hit returns the Frame without touching the backend, without a
// simulated-latency sleep, and without counting a random read — in the
// paper's cost model a cached block is free, exactly like the §2.4 pinned
// block, but shared across queries and partitions.
//
// An entry is charged its decoded size (elements × ElementSize), not the
// ~5× smaller frame it holds: a budget is a number of raw blocks' worth of
// elements, whatever the format, so a cache size means one thing on both.
//
// Sequential scans deliberately bypass the cache: a merge or summary rebuild
// touches each block once, and letting scans through would evict the hot
// query working set (classic scan resistance).
//
// Coherence rests on the Manager's write discipline: blocks reach the
// backend only through Manager.Create (which invalidates the name) and the
// Writer, whose partial tail block is flushed only at Close — after which
// the file can never grow again. Cached blocks therefore describe immutable
// data. Writing to a shared backend through a second Manager (or directly)
// bypasses this cache and voids that guarantee.
//
// Cached frames are shared between the cache and all readers; a Frame is
// immutable, so sharing needs no care.
type blockCache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu       sync.Mutex
	capBytes int64 // this shard's budget in decoded-equivalent bytes
	bytes    int64 // decoded-equivalent bytes currently held
	// items indexes entries by file name first so that invalidate(name) —
	// which runs on every Remove and Create, i.e. on every level merge —
	// touches only that file's blocks instead of scanning the whole shard.
	items map[string]map[int64]*list.Element
	order *list.List // front = most recently used
}

type cacheKey struct {
	name  string
	block int64
}

type cacheEntry struct {
	key   cacheKey
	frame *Frame
}

// cost is what an entry charges the budget: the size of its block decoded.
func cost(f *Frame) int64 { return int64(f.n) * ElementSize }

// cacheShards is the shard count: enough to keep lock contention negligible
// when many streams' queries share the device cache, without fragmenting
// small caches.
const cacheShards = 16

// newBlockCache builds a cache holding at most budgetBytes of blocks' decoded
// elements in total. Accounting is in decoded-equivalent bytes (elements ×
// ElementSize), not entries: a compressed columnar block holds several raw
// blocks' worth of elements and is charged accordingly. The budget is
// distributed exactly across the shards (remainder to the first few); the
// shard count shrinks until every shard can hold at least one worst-case
// decoded columnar block (~8 × blockSize), so the per-shard split never
// makes a block of this geometry uncacheable (a longer one, from a file
// written under a larger block size, is refused by put and read uncached).
func newBlockCache(budgetBytes int64, blockSize int) *blockCache {
	if budgetBytes <= 0 {
		return nil
	}
	maxEntry := int64(blockSize-colHeaderLen) * ElementSize
	if maxEntry < int64(blockSize) {
		maxEntry = int64(blockSize)
	}
	n := budgetBytes / maxEntry
	if n > cacheShards {
		n = cacheShards
	}
	if n < 1 {
		n = 1
	}
	c := &blockCache{shards: make([]cacheShard, n)}
	base, extra := budgetBytes/n, budgetBytes%n
	for i := range c.shards {
		c.shards[i].capBytes = base
		if int64(i) < extra {
			c.shards[i].capBytes++
		}
		c.shards[i].items = make(map[string]map[int64]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

// shard places a key by FNV-1a of the name mixed with the block index: a pure
// function of the key, so one op sequence hits and misses alike in every run.
func (c *blockCache) shard(key cacheKey) *cacheShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key.name); i++ {
		h = (h ^ uint64(key.name[i])) * 1099511628211
	}
	h ^= uint64(key.block) * 0x9e3779b97f4a7c15
	return &c.shards[(h^h>>32)%uint64(len(c.shards))]
}

// get returns the cached frame and true on a hit, bumping its recency.
func (c *blockCache) get(name string, block int64) (*Frame, bool) {
	s := c.shard(cacheKey{name, block})
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[name][block]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry).frame, true
}

// remove drops one entry from the shard's indexes and releases its byte
// charge. Caller holds s.mu.
func (s *cacheShard) remove(el *list.Element) {
	e := el.Value.(*cacheEntry)
	s.bytes -= cost(e.frame)
	s.order.Remove(el)
	blocks := s.items[e.key.name]
	delete(blocks, e.key.block)
	if len(blocks) == 0 {
		delete(s.items, e.key.name)
	}
}

// put inserts (or refreshes) a block, evicting the shard's LRU tail until
// the byte budget holds. A block bigger than the whole shard budget
// is not inserted at all — caching it would evict everything else and still
// bust the budget.
func (c *blockCache) put(name string, block int64, f *Frame) {
	key := cacheKey{name, block}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if cost(f) > s.capBytes {
		return
	}
	if el, ok := s.items[name][block]; ok {
		e := el.Value.(*cacheEntry)
		s.bytes += cost(f) - cost(e.frame)
		e.frame = f
		s.order.MoveToFront(el)
	} else {
		blocks := s.items[name]
		if blocks == nil {
			blocks = make(map[int64]*list.Element)
			s.items[name] = blocks
		}
		blocks[block] = s.order.PushFront(&cacheEntry{key: key, frame: f})
		s.bytes += cost(f)
	}
	for s.bytes > s.capBytes {
		s.remove(s.order.Back())
	}
}

// invalidate drops every cached block of the named file. Called on Remove
// and on Create (truncation), the only two ways an immutable partition file
// can change identity. Cost is proportional to the file's cached blocks,
// not to the cache size — merges on large multi-tenant caches would
// otherwise scan the world per removed partition.
func (c *blockCache) invalidate(name string) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, el := range s.items[name] {
			s.bytes -= cost(el.Value.(*cacheEntry).frame)
			s.order.Remove(el)
		}
		delete(s.items, name)
		s.mu.Unlock()
	}
}

// len returns the number of cached blocks (for tests).
func (c *blockCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}
