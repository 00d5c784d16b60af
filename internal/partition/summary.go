package partition

import "fmt"

// Summary is the in-memory summary HSᵢ of one partition (Algorithm 2):
// β₁ elements whose ranks within the partition are known exactly. Values[0]
// is the partition minimum; Values[i] for i ≥ 1 is the element at rank
// ⌈i·ε₁·η⌉ (position i·ε₁·η − 1 in the zero-based sorted order), clamped to
// the last element. Pos records each value's zero-based position, exactly as
// the paper's summaries carry "a pointer to the on-disk address": a query's
// bracket starts at Pos[i]+1, and a Cursor decodes its block from there with
// Values[i] as the predecessor the delta encoding needs, so a probe costs one
// summary gap, not a block.
type Summary struct {
	Part   *Partition
	Values []int64
	Pos    []int64
}

// MemoryBytes is the footprint of the summary: 16 bytes per entry (value +
// position).
func (s *Summary) MemoryBytes() int64 { return int64(len(s.Values)) * 16 }

// summaryPositions returns the β₁ capture positions for a partition of size
// eta under parameter eps1 (the zero-based indexes of Algorithm 2's chosen
// elements). Positions are non-decreasing; the first is always 0.
func summaryPositions(eta int64, eps1 float64, beta1 int) []int64 {
	if eta <= 0 {
		return nil
	}
	pos := make([]int64, 0, beta1)
	pos = append(pos, 0)
	for i := 1; i < beta1; i++ {
		p := int64(float64(i)*eps1*float64(eta)) - 1
		if p < 0 {
			p = 0
		}
		if p > eta-1 {
			p = eta - 1
		}
		if p < pos[len(pos)-1] {
			p = pos[len(pos)-1]
		}
		pos = append(pos, p)
	}
	return pos
}

// capture incrementally extracts a Summary while a sorted partition streams
// past (during batch sorting or partition merging), so summary construction
// costs zero additional disk accesses.
type capture struct {
	positions []int64
	values    []int64
	next      int
	idx       int64
}

// newCapture prepares a capture for a partition of known size eta.
func newCapture(eta int64, eps1 float64, beta1 int) *capture {
	pos := summaryPositions(eta, eps1, beta1)
	return &capture{positions: pos, values: make([]int64, len(pos))}
}

// feed observes the next element of the sorted stream.
func (c *capture) feed(v int64) {
	for c.next < len(c.positions) && c.positions[c.next] == c.idx {
		c.values[c.next] = v
		c.next++
	}
	c.idx++
}

// summary finalizes the capture for partition p. It returns an error if the
// stream was shorter than announced (positions not all filled).
func (c *capture) summary(p *Partition) (*Summary, error) {
	if c.next != len(c.positions) {
		return nil, fmt.Errorf("partition: summary capture incomplete: %d/%d positions filled after %d elements",
			c.next, len(c.positions), c.idx)
	}
	return &Summary{Part: p, Values: c.values, Pos: c.positions}, nil
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
	i := s.CountLE(u) - 1
	if i >= 0 {
		lo = s.Pos[i] + 1
	}
	// Smallest summary entry with value > v.
	j := s.CountLE(v)
	if j < len(s.Values) {
		hi = s.Pos[j]
	}
	if lo > hi {
		// Can happen when duplicates collapse positions; the boundary is
		// then pinned exactly.
		lo = hi
	}
	return lo, hi
}
