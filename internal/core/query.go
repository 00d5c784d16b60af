package core

import (
	"fmt"
	"time"

	"repro/internal/partition"
)

// QueryCost reports what an accurate query spent.
type QueryCost struct {
	// Iterations is the number of bisection probes (Algorithm 8 recursion
	// depth; for a multi-target sweep, probes shared across targets count
	// once; one per value for RankOfValues).
	Iterations int
	// RandReads is the number of random block reads across all partitions
	// that reached the storage backend.
	RandReads int
	// CacheHits is the number of probes absorbed by the device block cache
	// (they cost no disk access).
	CacheHits int
	// SkippedBlocks is the number of bisection steps resolved from columnar
	// block-header bounds without any block access (neither disk nor cache).
	SkippedBlocks int
	// MemoHits is the number of bisection probes resolved entirely from the
	// snapshot's rank-probe memo — zero partition I/O. Like a skipped
	// block, a memo hit is the absence of an access: it spends no MaxReads
	// budget.
	MemoHits int
	// FilterU and FilterV are the initial filters from Algorithm 7 (for a
	// multi-target sweep, the hull over all targets' filters).
	FilterU, FilterV int64
	// Truncated reports that an I/O budget stopped the search early, so the
	// answer's error may exceed ε·m (but stays within the current filter
	// spread).
	Truncated bool
	// Elapsed is the wall-clock query time, set by the caller that timed it
	// (the hsq engine); the functions here leave it zero.
	Elapsed time.Duration
}

// QueryOptions tunes an accurate query beyond the paper's defaults.
type QueryOptions struct {
	// PinBlocks enables the §2.4 single-block caching optimization.
	PinBlocks bool
	// MaxReads, when positive, caps random block reads that actually reach
	// the storage backend: the search stops early once the cap is reached
	// and returns its best current answer with Truncated set. Accesses that
	// touch no backend — device cache hits, skipped blocks, memo hits —
	// spend no budget. This explores the paper's conclusion's
	// accuracy-vs-disk-access tradeoff ("stopping the search of the
	// on-disk structure early").
	MaxReads int
	// Interrupt, when non-nil, is polled before each bisection probe; a
	// non-nil return aborts the query with that error. The engine wires
	// context cancellation through this hook so a slow disk search can be
	// abandoned mid-flight.
	Interrupt func() error
	// Memo, when non-nil, caches historical rank probes across queries. The
	// caller must guarantee the memo belongs to exactly the partition set
	// being queried — the engine attaches one to each immutable store
	// version and passes it only for full-history queries, so entries never
	// go stale: they die with their version. A probe found in the memo
	// costs no I/O and counts in QueryCost.MemoHits.
	Memo *partition.ProbeMemo
}

// histNeighbour returns the largest on-disk element ≤ the last probe value,
// or with up the smallest one > it, assuming every cursor's last Rank call
// was for that value. have=false means no partition holds one.
func histNeighbour(cursors []*partition.Cursor, up bool) (best int64, have bool, err error) {
	for _, cur := range cursors {
		b := cur.LastBoundary()
		if !up {
			b--
		}
		if b < 0 || b >= cur.Count() {
			continue
		}
		e, err := cur.Element(b)
		if err != nil {
			return 0, false, err
		}
		if !have || (e < best) == up {
			best, have = e, true
		}
	}
	return best, have, nil
}

// snapFrom combines a historical neighbour of z (histE when histOK) with the
// stream pieces' to the largest element of T that is ≤ z, or with up the
// smallest that is > z, falling back to the global minimum (maximum) when
// there is none.
func snapFrom(c *Combined, histE int64, histOK bool, z int64, up bool) (int64, error) {
	best, have := histE, histOK
	for _, p := range c.streams {
		i := countLE(p.SS, 0, len(p.SS), z)
		if !up {
			i--
		}
		if i < 0 || i >= len(p.SS) {
			continue
		}
		if e := p.SS[i]; !have || (e < best) == up {
			best, have = e, true
		}
	}
	switch {
	case have:
		return best, nil
	case len(c.runs) == 0:
		return 0, fmt.Errorf("core: no data")
	case up:
		return c.maxV, nil
	}
	return c.minV, nil
}
