package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
)

// DefaultSummaryTTL bounds how stale a cached shard summary may get when no
// invalidation traffic reaches this node (a writer talking directly to the
// owning shard, for example). It is deliberately short: the cache's real
// freshness signal is the explicit invalidation on observed EndStep relay
// frames.
const DefaultSummaryTTL = 2 * time.Second

// summaryKey identifies one cached fetch: a stream's summary as served by
// one member node under one ring epoch. Keying on the epoch means a
// membership change (rolling restart, replica move) silently drops every
// entry fetched under the old placement.
type summaryKey struct {
	stream string
	node   string
	epoch  uint64
}

// summaryEntry is one cached shard summary plus its expiry. A nil summary
// is a valid cached answer ("peer has no data for this stream").
type summaryEntry struct {
	sum     *core.ShardSummary
	expires time.Time
}

// summaryCacheCounters aggregates cache traffic.
type summaryCacheCounters struct {
	hits, misses, invalidations uint64
}

// summaryCache caches shard summaries fetched from peers so that a burst of
// coordinator reads (a dashboard polling POST /query over many streams)
// does not re-dial every shard for every request. Entries expire
// after a short TTL and are dropped eagerly when this node observes
// EndStep relay traffic for the stream — the only event that moves a shard
// summary's step boundary — so the common case serves fresh data without a
// network round trip and the worst case is one TTL behind.
type summaryCache struct {
	mu      sync.Mutex
	ttl     time.Duration
	entries map[summaryKey]summaryEntry
	ctr     summaryCacheCounters
}

// newSummaryCache builds a cache with the given TTL; nil when ttl < 0
// (caching disabled).
func newSummaryCache(ttl time.Duration) *summaryCache {
	if ttl < 0 {
		return nil
	}
	if ttl == 0 {
		ttl = DefaultSummaryTTL
	}
	return &summaryCache{ttl: ttl, entries: make(map[summaryKey]summaryEntry)}
}

// get returns the live cached summary for key, if any.
func (sc *summaryCache) get(key summaryKey) (*core.ShardSummary, bool) {
	now := time.Now()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	e, ok := sc.entries[key]
	if ok && now.Before(e.expires) {
		sc.ctr.hits++
		return e.sum, true
	}
	if ok {
		delete(sc.entries, key) // expired
	}
	sc.ctr.misses++
	return nil, false
}

// put records a fetched summary.
func (sc *summaryCache) put(key summaryKey, sum *core.ShardSummary) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.entries[key] = summaryEntry{sum: sum, expires: time.Now().Add(sc.ttl)}
}

// invalidateStream drops every node's cached summary for stream, counting
// one invalidation event if anything was dropped.
func (sc *summaryCache) invalidateStream(stream string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	dropped := false
	for k := range sc.entries {
		if k.stream == stream {
			delete(sc.entries, k)
			dropped = true
		}
	}
	if dropped {
		sc.ctr.invalidations++
	}
}

// SummaryCacheStats snapshots the summary cache.
type SummaryCacheStats struct {
	// Enabled reports whether caching is on (TTL ≥ 0).
	Enabled bool `json:"enabled"`
	// TTLMillis is the entry lifetime in milliseconds.
	TTLMillis int64 `json:"ttl_ms"`
	// Hits and Misses count get outcomes (a hit saves one peer dial).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Invalidations counts streams dropped on observed EndStep traffic.
	Invalidations uint64 `json:"invalidations"`
	// Entries is the current live entry count.
	Entries int `json:"entries"`
}

// SummaryCacheStats returns the cluster's summary-cache counters.
func (c *Cluster) SummaryCacheStats() SummaryCacheStats {
	if c.summaries == nil {
		return SummaryCacheStats{}
	}
	sc := c.summaries
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return SummaryCacheStats{
		Enabled:       true,
		TTLMillis:     sc.ttl.Milliseconds(),
		Hits:          sc.ctr.hits,
		Misses:        sc.ctr.misses,
		Invalidations: sc.ctr.invalidations,
		Entries:       len(sc.entries),
	}
}

// InvalidateSummaries drops cached summaries for stream. Relay calls it on
// every observed EndStep frame — fan-out from a local apply, a routed
// client frame, or a forwarded REST write all pass through Relay, so a
// coordinator that sees a step close never serves the closed step from
// cache. Exposed for the ingest server's local-apply path, where a step
// can close without any relay traffic (single-member streams).
func (c *Cluster) InvalidateSummaries(stream string) {
	if c.summaries != nil {
		c.summaries.invalidateStream(stream)
	}
}

// CachedSummary returns stream's shard summary as served by node, consulting
// the summary cache first. Fetch errors are never cached.
func (c *Cluster) CachedSummary(ctx context.Context, node Node, stream string) (*core.ShardSummary, error) {
	if c.summaries == nil {
		return FetchSummary(ctx, c.cfg.DialTimeout, node, stream)
	}
	key := summaryKey{stream: stream, node: node.ID, epoch: c.cfg.Ring.Epoch()}
	if sum, ok := c.summaries.get(key); ok {
		return sum, nil
	}
	sum, err := FetchSummary(ctx, c.cfg.DialTimeout, node, stream)
	if err != nil {
		return nil, err
	}
	c.summaries.put(key, sum)
	return sum, nil
}
