package partition

import (
	"fmt"
	"math"
)

// Summary is the in-memory summary HSᵢ of one partition (Algorithm 2): the
// Beta(η, ε₁) elements CapturePos places, whose ranks within the partition
// are known exactly. Values[0] is the partition minimum; Values[i] for
// i ≥ 1 is the element at rank ⌊i·ε₁·η⌋, clamped to the partition — rank i
// in a partition of η < 1/ε₁ elements, which the summary holds whole. Its
// position, the paper's "pointer to the on-disk address", is derived (pos),
// not stored: a query's bracket starts one past it, and a Cursor decodes its
// block from there with Values[i] as the predecessor the delta encoding
// needs, so a probe costs one summary gap, not a block.
type Summary struct {
	Part   *Partition
	Values []int64
	eps1   float64
}

// PartSummary is the portable form of one partition summary: the element
// count, the time steps the partition covers, and the captured values, as
// many as the capture rule takes of Count elements at ε₁ (Beta). The step
// range is what lets a summary be narrowed to a query scope and matched to a
// store manifest's entry (the cold-summary sidecar, and a LoadStore handed
// the summaries an eviction captured). Capture positions are not carried:
// each follows from Count and ε₁ (CapturePos), and the rank bounds are sums
// of them.
type PartSummary struct {
	Count              int64
	StartStep, EndStep int
	Values             []int64
}

// MemoryBytes is the footprint of the summary: 8 bytes per entry (value).
func (s *Summary) MemoryBytes() int64 { return int64(len(s.Values)) * 8 }

// pos returns the zero-based partition position of entry i.
func (s *Summary) pos(i int) int64 { return CapturePos(i, s.Part.Count, s.eps1) }

// CapturePos is Algorithm 2's capture rule, the one statement of where a
// summary entry sits: the zero-based position of entry i in a sorted run of
// eta elements summarized at ε, ⌊i·max(ε·η, 1)⌋ − 1 clamped to [0, η−1].
// Where ε·η ≥ 1 that is the paper's ⌊i·ε·η⌋ − 1; a shorter run is captured
// whole, entry i at position i − 1, the minimum taken by entries 0 and 1. It
// is non-decreasing in i. Partitions capture with it at ε₁, and so does a
// stream piece that leaves the engine (core.SortedSummary); a whole piece
// is its run at ε = 0. The rank bounds of every run are the positions it
// gives. It is one formula with no branch, which keeps
// core's per-run bound within the inliner's budget.
func CapturePos(i int, eta int64, eps float64) int64 {
	p := int64(max(float64(i)*eps*float64(eta), float64(i))) - 1
	return min(max(p, 0), eta-1)
}

// Beta is the entry count the rule implies for a run of eta elements at ε:
// ⌈1/ε⌉ + 1, one more where the float product ⌈1/ε⌉·ε falls short of 1
// (ε = 1/161, say), so that the last entry is always the run's maximum — or
// η + 1 where that is fewer, the run itself once with its minimum twice. A
// run of no elements has no entries.
func Beta(eta int64, eps float64) int {
	if eta <= 0 {
		return 0
	}
	b := math.Ceil(1 / eps)
	if b*eps < 1 {
		b++
	}
	return int(min(b, float64(eta))) + 1
}

// capture incrementally extracts a Summary while a sorted partition streams
// past (during batch sorting or partition merging), so summary construction
// costs zero additional disk accesses.
type capture struct {
	sum     Summary
	next    int   // the next entry to fill
	at, idx int64 // its position; the next element's
}

// newCapture prepares a capture for partition p, whose Count is known.
func newCapture(p *Partition, eps1 float64) *capture {
	return &capture{sum: Summary{Part: p, Values: make([]int64, Beta(p.Count, eps1)), eps1: eps1}}
}

// feedSlice observes the next block of the sorted stream, filling the
// entries whose positions fall in it: its work is the entries', not the
// block's.
func (c *capture) feedSlice(b []int64) {
	end := c.idx + int64(len(b))
	for c.next < len(c.sum.Values) && c.at < end {
		c.sum.Values[c.next] = b[c.at-c.idx]
		c.next++
		c.at = c.sum.pos(c.next)
	}
	c.idx = end
}

// summary finalizes the capture. It returns an error if the stream was
// shorter than announced (positions not all filled).
func (c *capture) summary() (*Summary, error) {
	if c.next != len(c.sum.Values) {
		return nil, fmt.Errorf("partition: summary capture incomplete: %d/%d positions filled after %d elements",
			c.next, len(c.sum.Values), c.idx)
	}
	return &c.sum, nil
}

// CountLE returns the number of summary entries with value ≤ x — the α_P of
// the paper's L/U bound computation.
func (s *Summary) CountLE(x int64) int {
	// Values are sorted; binary search for first > x.
	lo, hi := 0, len(s.Values)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Values[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Bracket returns a closed index bracket [lo, hi] guaranteed to contain
// boundary(z) = the number of partition elements ≤ z, for every z in [u, v].
// It is derived from the summary's exactly-ranked elements: any summary
// value ≤ u pushes the boundary right of its position; any summary value > v
// caps the boundary at its position. This is the l/p seeding of Algorithm 8.
func (s *Summary) Bracket(u, v int64) (lo, hi int64) {
	lo, hi = 0, s.Part.Count
	// Largest summary entry with value <= u.
	j := s.CountLE(u)
	if j > 0 {
		lo = s.pos(j-1) + 1
	}
	// Smallest summary entry with value > v: the next one when v = u, a
	// probe's point bracket (Cursor.SeekTo), which so searches once.
	if v != u {
		j = s.CountLE(v)
	}
	if j < len(s.Values) {
		hi = s.pos(j)
	}
	if lo > hi {
		// Can happen when duplicates collapse positions; the boundary is
		// then pinned exactly.
		lo = hi
	}
	return lo, hi
}
