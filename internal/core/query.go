package core

import (
	"fmt"
	"sort"
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

// histRank sums boundary(z) over all cursors.
func histRank(cursors []*partition.Cursor, z int64) (int64, error) {
	var total int64
	for _, cur := range cursors {
		p, err := cur.Rank(z)
		if err != nil {
			return 0, err
		}
		total += p
	}
	return total, nil
}

// histPred returns the largest on-disk element ≤ the last probe value,
// assuming every cursor's last Rank call was for that value. ok=false means
// no partition holds such an element.
func histPred(cursors []*partition.Cursor) (int64, bool, error) {
	best := int64(0)
	have := false
	for _, cur := range cursors {
		b := cur.LastBoundary()
		if b == 0 {
			continue
		}
		e, err := cur.Element(b - 1)
		if err != nil {
			return 0, false, err
		}
		if !have || e > best {
			best, have = e, true
		}
	}
	return best, have, nil
}

// histSucc returns the smallest on-disk element > the last probe value,
// assuming every cursor's last Rank call was for that value. ok=false means
// no partition holds such an element.
func histSucc(cursors []*partition.Cursor) (int64, bool, error) {
	var best int64
	have := false
	for _, cur := range cursors {
		b := cur.LastBoundary()
		if b >= cur.Count() {
			continue
		}
		e, err := cur.Element(b)
		if err != nil {
			return 0, false, err
		}
		if !have || e < best {
			best, have = e, true
		}
	}
	return best, have, nil
}

// snapDownFrom combines a historical predecessor (histE when histOK) with
// the stream pieces' in-memory predecessors to the largest known element of
// T that is ≤ z, falling back to the global minimum when nothing is ≤ z.
func snapDownFrom(c *Combined, histE int64, histOK bool, z int64) (int64, error) {
	best, have := histE, histOK
	// Stream-side predecessors, one per memory-resident piece.
	for _, p := range c.streams {
		if i := sort.Search(len(p.SS), func(i int) bool { return p.SS[i] > z }); i > 0 {
			if e := p.SS[i-1]; !have || e > best {
				best, have = e, true
			}
		}
	}
	if have {
		return best, nil
	}
	return c.globalMin()
}

// snapUpFrom combines a historical successor (histE when histOK) with the
// stream pieces' in-memory successors to the smallest known element of T
// that is > z, falling back to the global maximum when nothing is > z.
func snapUpFrom(c *Combined, histE int64, histOK bool, z int64) (int64, error) {
	best, have := histE, histOK
	for _, p := range c.streams {
		if i := sort.Search(len(p.SS), func(i int) bool { return p.SS[i] > z }); i < len(p.SS) {
			if e := p.SS[i]; !have || e < best {
				best, have = e, true
			}
		}
	}
	if have {
		return best, nil
	}
	return c.globalMax()
}

// globalMin returns the smallest element recorded in any summary.
func (c *Combined) globalMin() (int64, error) {
	if len(c.runs) == 0 {
		return 0, fmt.Errorf("core: no data")
	}
	return c.minV, nil
}

// globalMax returns the largest element recorded in any summary.
func (c *Combined) globalMax() (int64, error) {
	if len(c.runs) == 0 {
		return 0, fmt.Errorf("core: no data")
	}
	return c.maxV, nil
}
