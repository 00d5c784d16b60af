package partition

import (
	"fmt"
	"sort"

	"repro/internal/disk"
)

// Cursor performs block-granular rank searches against one partition during
// an accurate query (Algorithm 8). It maintains a closed index bracket
// [lo, hi] guaranteed to contain boundary(z) — the number of partition
// elements ≤ z — for every probe value z in the query's current filter range
// [u, v]. The bracket is seeded from the partition summary (Summary.Bracket),
// and SeekTo re-seeds it for each probe of the shared sweep.
//
// A block read returns a checked, undecoded disk.Frame of the strides that
// cover the bracket's share of the block (the whole block on its first read
// in the process, or from the block cache), read into a buffer the cursor
// owns. A probe decodes only that share — one summary gap, not the block —
// into one buffer the cursor reuses, starting at a block start or at the
// seeded lo one past summary entry i's position (derived from the
// partition's count and ε₁, Summary.pos) with Values[i] as its predecessor.
//
// When the candidate range fits inside one disk block, the frame is pinned
// in memory and subsequent probes cost no I/O in the paper's count — the
// §2.4 optimization. A later probe or Element call in the pinned block that
// needs strides the pin lacks fetches them (disk.RandomReader.Cover): free
// in RandReads, counted in disk.Stats.StrideReads. On columnar partitions
// the cursor additionally consults each block's header min/max bounds
// before reading it: a probe value outside the bounds resolves the
// bisection step with no read at all, counted as a skipped block.
type Cursor struct {
	sum     *Summary
	rr      *disk.RandomReader
	lo, hi  int64
	lastIdx int64
	pinning bool
	pinIdx  int64 // block index of the pinned frame
	pinned  *disk.Frame
	// own backs the stride reads: the pinned frame may be one of them, and
	// the next read goes into the other.
	own [2]disk.Frame
	// win holds elements [winLo, winLo+len(win)), the last run a probe
	// decoded; buf backs it from probe to probe.
	win   []int64
	winLo int64
	buf   []int64
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

// frame returns block idx holding at least its elements [from, to) (block
// offsets): the pinned frame, or a read counted as one.
func (c *Cursor) frame(idx, from, to int64) (*disk.Frame, error) {
	if c.pinned != nil && idx == c.pinIdx {
		return c.pinned, nil
	}
	into := &c.own[0]
	if c.pinned == into {
		into = &c.own[1]
	}
	return c.rr.ReadRun(idx, int(from), int(to), into)
}

// pin keeps a frame so later probes in the same range are free. A pinned
// block keeps the frame it has, which decode may have grown past f.
func (c *Cursor) pin(f *disk.Frame, idx int64) {
	if c.pinning && (c.pinned == nil || idx != c.pinIdx) {
		c.pinned, c.pinIdx = f, idx
	}
}

// run returns elements [a, b) of block idx, whose frame is f. The last run
// decoded is reused when it covers this one; otherwise the run is decoded
// into the cursor's buffer.
func (c *Cursor) run(f *disk.Frame, idx, a, b int64) ([]int64, error) {
	if a >= c.winLo && b <= c.winLo+int64(len(c.win)) {
		return c.win[a-c.winLo : b-c.winLo], nil
	}
	// Rank moves lo only to block starts, so a run starts mid-block only at
	// the seeded lo, one past an entry's derived position, whose
	// predecessor the summary holds.
	base := c.rr.BlockStart(idx)
	prev, ok := c.summaryAt(a - 1)
	if !ok && a > base {
		panic(fmt.Sprintf("partition: bracket starts at element %d, which follows no summary entry", a))
	}
	if int64(cap(c.buf)) < b-a {
		c.buf = make([]int64, b-a)
	}
	if err := c.decode(f, idx, c.buf[:b-a], int(a-base), prev); err != nil {
		c.win, c.winLo = nil, 0 // the buffer holds no run now
		return nil, err
	}
	c.win, c.winLo = c.buf[:b-a], a
	return c.win, nil
}

// decode decodes the run of block idx's frame f that starts at from,
// fetching the strides f lacks first (the pin follows f), and names the
// partition if the frame does not decode.
func (c *Cursor) decode(f *disk.Frame, idx int64, dst []int64, from int, prev int64) error {
	g, err := c.rr.Cover(f, idx, from, from+len(dst))
	if err == nil {
		if c.pinned == f {
			c.pinned = g
		}
		err = g.Decode(dst, from, prev)
	}
	if err != nil {
		return fmt.Errorf("partition: %s block %d: %w", c.sum.Part.Name(), idx, err)
	}
	return nil
}

// summaryAt returns the partition element at position pos when the summary
// captured it. The capture rule puts entry i at ⌊i·g⌋ − 1 clamped, g =
// max(ε₁·count, 1) (CapturePos), so the first entry at pos is i =
// ⌈(pos+1)/g⌉: ⌊(pos+1)/g⌋ or the next, two candidates, not a bisection of
// CapturePos calls. Entries that share a position hold the one element there.
func (c *Cursor) summaryAt(pos int64) (int64, bool) {
	s := c.sum
	i0 := max(int(float64(pos+1)/max(s.eps1*float64(s.Part.Count), 1)), 0)
	for i := i0; i <= i0+1 && i < len(s.Values); i++ {
		if s.pos(i) == pos {
			return s.Values[i], true
		}
	}
	return 0, false
}

// settle answers a probe inside a run starting at element a: boundary(z) is
// a plus the run's elements ≤ z.
func (c *Cursor) settle(run []int64, a, z int64) int64 {
	c.lastIdx = a + int64(sort.Search(len(run), func(i int) bool { return run[i] > z }))
	return c.lastIdx
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
// nothing. Each block it reads, it fetches and decodes only the bracket's
// share of.
func (c *Cursor) Rank(z int64) (int64, error) {
	lo, hi := c.lo, c.hi
	for lo < hi {
		// Fully answerable from the pinned frame?
		if f := c.pinned; f != nil {
			if base := c.rr.BlockStart(c.pinIdx); lo >= base && hi <= base+int64(f.Len()) {
				run, err := c.run(f, c.pinIdx, lo, hi)
				if err != nil {
					return 0, err
				}
				return c.settle(run, lo, z), nil
			}
		}
		loBlk := c.rr.ElementBlock(lo)
		hiBlk := c.rr.ElementBlock(hi - 1)
		// Bisect the blocks; when the bracket sits inside one, blk is it, and
		// if its header bounds already decide every candidate the answer is
		// a bracket endpoint and the read is unnecessary.
		blk := (loBlk + hiBlk) / 2
		if nlo, nhi, done := c.skipByBounds(blk, z, lo, hi); done {
			lo, hi = nlo, nhi
			continue
		}
		base := c.rr.BlockStart(blk)
		a, b := max(lo, base), min(hi, base+c.rr.BlockLen(blk))
		f, err := c.frame(blk, a-base, b-base)
		if err != nil {
			return 0, err
		}
		if loBlk == hiBlk {
			c.pin(f, blk)
		}
		run, err := c.run(f, blk, a, b)
		if err != nil {
			return 0, err
		}
		switch {
		case z < run[0]:
			hi = a
		case z >= run[len(run)-1]:
			lo = a + int64(len(run))
		default:
			c.pin(f, blk)
			return c.settle(run, a, z), nil
		}
	}
	c.lastIdx = lo
	return lo, nil
}

// LastBoundary returns the boundary index found by the most recent Rank
// call.
func (c *Cursor) LastBoundary() int64 { return c.lastIdx }

// Count returns the number of elements in the underlying partition.
func (c *Cursor) Count() int64 { return c.sum.Part.Count }

// Element returns the partition element at index i — after Rank, the
// boundary's neighbours i = LastBoundary()-1 and LastBoundary(). It reads
// block i (the stride holding i) unless that block is pinned, whichever
// source then answers: the last decoded run, one decode past the run's end,
// the summary, or the block's bounds (format 0 stores every element whole).
// It never decodes from a block start to a mid-block element.
func (c *Cursor) Element(i int64) (int64, error) {
	if i < 0 || i >= c.sum.Part.Count {
		return 0, fmt.Errorf("partition: element index %d out of [0,%d)", i, c.sum.Part.Count)
	}
	idx := c.rr.ElementBlock(i)
	base, end := c.rr.BlockStart(idx), c.winLo+int64(len(c.win))
	f, err := c.frame(idx, i-base, i-base+1)
	if err != nil {
		return 0, err
	}
	c.pin(f, idx)
	var v [1]int64
	switch mn, mx, bounded := c.rr.BlockBounds(idx); {
	case i >= c.winLo && i < end:
		return c.win[i-c.winLo], nil
	case i == end && end > base:
		err := c.decode(f, idx, v[:], int(i-base), c.win[len(c.win)-1])
		return v[0], err
	case !bounded:
		err := c.decode(f, idx, v[:], int(i-base), 0)
		return v[0], err
	case i == base:
		return mn, nil
	case i == base+int64(f.Len())-1:
		return mx, nil
	}
	if v, ok := c.summaryAt(i); ok {
		return v, nil
	}
	return 0, fmt.Errorf("partition: element %d is not next to the last probe's run", i)
}

// SeekTo re-seeds the bracket from the summary for a single probe value z,
// so one cursor set can serve probes across disjoint subranges (the shared
// multi-target sweep). Summary.Bracket(z, z) is the tightest
// summary-derived bracket for z — at most one summary gap (≈ ε₁·count
// elements) wide — so a seek never costs more than a freshly opened cursor
// would. A pinned frame is kept: if the new bracket lands inside it, the
// probe is still free.
func (c *Cursor) SeekTo(z int64) {
	c.lo, c.hi = c.sum.Bracket(z, z)
}
