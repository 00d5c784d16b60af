package partition

import (
	"fmt"

	"repro/internal/disk"
)

// Cursor performs block-granular rank searches against one partition during
// an accurate query (Algorithm 8). It maintains a closed index bracket
// [lo, hi] guaranteed to contain boundary(z) — the number of partition
// elements ≤ z — for every probe value z in the query's current filter range
// [u, v]. The bracket is seeded from the partition summary (Summary.Bracket),
// and SeekTo re-seeds it for each probe of the shared sweep.
//
// When the candidate range fits inside one disk block, the block is pinned
// in memory and subsequent probes cost no I/O — the paper's §2.4
// optimization. On columnar partitions the cursor additionally consults
// each block's header min/max bounds before reading it: a probe value
// outside the bounds resolves the bisection step with no read at all,
// counted as a skipped block.
type Cursor struct {
	sum     *Summary
	rr      *disk.RandomReader
	lo, hi  int64
	lastIdx int64
	pinning bool
	pinIdx  int64 // block index of the pinned block
	pinBase int64 // element index of the pinned block's first element
	pinned  []int64
}

// NewCursor opens a cursor over the summarized partition for probe values
// confined to [u, v]. pinning enables the single-block caching optimization.
// The caller must Close the cursor.
func NewCursor(sum *Summary, u, v int64, pinning bool) (*Cursor, error) {
	rr, err := sum.Part.OpenRandom()
	if err != nil {
		return nil, err
	}
	lo, hi := sum.Bracket(u, v)
	return &Cursor{sum: sum, rr: rr, lo: lo, hi: hi, pinning: pinning, pinIdx: -1}, nil
}

// Close releases the underlying file handle.
func (c *Cursor) Close() error { return c.rr.Close() }

// Reads returns the number of random block reads this cursor sent to the
// backend (block-cache hits excluded — they cost no disk access).
func (c *Cursor) Reads() int { return c.rr.Reads() }

// CacheHits returns the number of probes served by the device block cache.
func (c *Cursor) CacheHits() int { return c.rr.CacheHits() }

// Skips returns the number of bisection steps answered from columnar block
// header bounds without reading the block.
func (c *Cursor) Skips() int { return c.rr.Skips() }

// block reads block idx, counting the access, and pins it if pinning is
// enabled.
func (c *Cursor) block(idx int64) ([]int64, error) {
	if c.pinned != nil && idx == c.pinIdx {
		return c.pinned, nil
	}
	return c.rr.Block(idx)
}

// pin caches a block so later probes in the same range are free.
func (c *Cursor) pin(vals []int64, idx, base int64) {
	if c.pinning {
		c.pinned = vals
		c.pinIdx = idx
		c.pinBase = base
	}
}

// boundaryWithin binary-searches for boundary(z) inside vals (covering
// positions [base, base+len)), restricted to candidates [lo, hi].
func boundaryWithin(vals []int64, base, z, lo, hi int64) int64 {
	a := max(lo, base)
	b := min(base+int64(len(vals)), hi)
	for a < b {
		m := (a + b) / 2
		if vals[m-base] > z {
			b = m
		} else {
			a = m + 1
		}
	}
	return a
}

// skipByBounds resolves the probe of block idx against its header bounds,
// if the format carries them and z falls outside. The block is sorted, so
// z below the block minimum decides the probe like z below the block's
// first candidate element, and z at or above the maximum like z at or
// above its last — without reading the block. Returns the narrowed
// bracket and whether the probe was resolved.
func (c *Cursor) skipByBounds(idx, z, lo, hi int64) (int64, int64, bool) {
	mn, mx, ok := c.rr.BlockBounds(idx)
	if !ok || (c.pinned != nil && idx == c.pinIdx) {
		// No bounds (format 0), or the block is already pinned — reading it
		// is free, so skipping would only discard information.
		return lo, hi, false
	}
	base := c.rr.BlockStart(idx)
	switch {
	case z < mn:
		c.rr.Skip(idx)
		return lo, max(base, lo), true
	case z >= mx:
		last := min(base+c.rr.BlockLen(idx)-1, hi-1)
		c.rr.Skip(idx)
		return last + 1, hi, true
	}
	return lo, hi, false
}

// Rank returns boundary(z) = the exact number of partition elements ≤ z,
// for z within the cursor's filter range. It performs O(log(blocks in
// bracket)) random block reads, or none once the bracket is pinned — and on
// columnar partitions, bisection steps whose block bounds exclude z cost
// nothing.
func (c *Cursor) Rank(z int64) (int64, error) {
	lo, hi := c.lo, c.hi
	for {
		if lo >= hi {
			c.lastIdx = lo
			return lo, nil
		}
		// Fully answerable from the pinned block?
		if c.pinned != nil && lo >= c.pinBase && hi <= c.pinBase+int64(len(c.pinned)) {
			b := boundaryWithin(c.pinned, c.pinBase, z, lo, hi)
			c.lastIdx = b
			return b, nil
		}
		loBlk := c.rr.ElementBlock(lo)
		hiBlk := c.rr.ElementBlock(hi - 1)
		if loBlk == hiBlk {
			// The bracket sits inside one block. If the header bounds already
			// decide every candidate, the answer is a bracket endpoint and
			// the read is unnecessary.
			if nlo, nhi, done := c.skipByBounds(loBlk, z, lo, hi); done {
				// z below the block's minimum collapses the bracket to lo;
				// z at or above its maximum collapses it to hi. The re-check
				// at the top of the loop returns the collapsed point.
				lo, hi = nlo, nhi
				continue
			}
			vals, err := c.block(loBlk)
			if err != nil {
				return 0, err
			}
			base := c.rr.BlockStart(loBlk)
			c.pin(vals, loBlk, base)
			b := boundaryWithin(vals, base, z, lo, hi)
			c.lastIdx = b
			return b, nil
		}
		midBlk := (loBlk + hiBlk) / 2
		if nlo, nhi, done := c.skipByBounds(midBlk, z, lo, hi); done {
			lo, hi = nlo, nhi
			continue
		}
		vals, err := c.block(midBlk)
		if err != nil {
			return 0, err
		}
		base := c.rr.BlockStart(midBlk)
		firstPos := max(base, lo)
		lastPos := min(base+int64(len(vals))-1, hi-1)
		switch {
		case z < vals[firstPos-base]:
			hi = firstPos
		case z >= vals[lastPos-base]:
			lo = lastPos + 1
		default:
			c.pin(vals, midBlk, base)
			b := boundaryWithin(vals, base, z, lo, hi)
			c.lastIdx = b
			return b, nil
		}
	}
}

// LastBoundary returns the boundary index found by the most recent Rank
// call.
func (c *Cursor) LastBoundary() int64 { return c.lastIdx }

// Count returns the number of elements in the underlying partition.
func (c *Cursor) Count() int64 { return c.sum.Part.Count }

// Element returns the partition element at index i, preferring the pinned
// block; otherwise it costs one random block read.
func (c *Cursor) Element(i int64) (int64, error) {
	if i < 0 || i >= c.sum.Part.Count {
		return 0, fmt.Errorf("partition: element index %d out of [0,%d)", i, c.sum.Part.Count)
	}
	if c.pinned != nil && i >= c.pinBase && i < c.pinBase+int64(len(c.pinned)) {
		return c.pinned[i-c.pinBase], nil
	}
	idx := c.rr.ElementBlock(i)
	vals, err := c.block(idx)
	if err != nil {
		return 0, err
	}
	base := c.rr.BlockStart(idx)
	c.pin(vals, idx, base)
	return vals[i-base], nil
}

// SeekTo re-seeds the bracket from the summary for a single probe value z,
// so one cursor set can serve probes across disjoint subranges (the shared
// multi-target sweep). Summary.Bracket(z, z) is the tightest
// summary-derived bracket for z — at most one summary gap (≈ ε₁·count
// elements) wide — so a seek never costs more than a freshly opened cursor
// would. A pinned block is kept: if the new bracket lands inside it, the
// probe is still free.
func (c *Cursor) SeekTo(z int64) {
	c.lo, c.hi = c.sum.Bracket(z, z)
}
