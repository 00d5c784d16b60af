// Package extsort is the sequential-I/O half of the paper's write path
// (Algorithm 3, Lemma 6): one sort, one merge, one writer, all moving blocks.
//
//   - The sort is radix.Sort, the kernel of the store's seal of a step and
//     of GK's flush too, over a batch held in memory; SortSlice is it
//     followed by the writer. Nothing is sorted on the device: a sealed step
//     is in memory until its one write.
//   - WriteRun is the only loop that puts a sorted run on the device: a
//     level-0 partition or a κ-merge output. Callers hand it a Source and,
//     to compute something in flight (the store's HSᵢ capture, Algorithm 2),
//     a per-block callback.
//   - Merger is the only k-way merge; OpenRuns builds one over run files.
//
// WriteRun refuses a value smaller than its predecessor before the file is
// closed. Every later binary search over the run, and every later open of
// the store, depends on that one property. A version-2 columnar block's
// CRC-32C refuses bytes damaged after they were written, but a raw or
// version-1 file carries no checksum, and a checksum vouches only for the
// bytes a writer laid down, not their order. So an input out of order has to
// stop here — at the merge that read it — rather than be copied into a new
// run that retires its still-sorted siblings. A merge keeps each input's own
// order, so a descent in any input reaches its output as a descent.
package extsort

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/disk"
	"repro/internal/radix"
)

// Source yields a run in non-decreasing order, a block at a time.
type Source interface {
	// NextBlock returns the next elements, valid until the next call; an
	// empty block means the source is done.
	NextBlock() ([]int64, error)
}

// sliceSource adapts a sorted slice to a Source: one block, the slice.
type sliceSource struct{ data []int64 }

func (s *sliceSource) NextBlock() ([]int64, error) {
	b := s.data
	s.data = nil
	return b, nil
}

// SliceSource returns a Source over a slice the caller has sorted. It does
// not verify the order: the run writer does, and returns an error where a
// check here could only panic inside an install.
func SliceSource(sorted []int64) Source { return &sliceSource{data: sorted} }

// mergeBlock is the most values a merge node emits a call: its buffer is
// 8 KB, 80 KB over the 10 nodes of an 11-way merge.
const mergeBlock = 1024

// Merger is a streaming k-way merge over sorted sources: a balanced tree of
// two-way merge nodes, each of which merges its children's blocks into its
// own mergeBlock-value buffer with no data-dependent branch. A node whose
// other child is done passes its live child's blocks through uncopied. It is
// the core of partition-level merges.
type Merger struct {
	l, r Source  // the children; nil once done
	a, b []int64 // the unread rest of each child's current block
	out  []int64
}

// NewMerger builds the merge of the given sorted sources, which it reads
// from only once the merge is read.
func NewMerger(sources ...Source) *Merger {
	switch len(sources) {
	case 0:
		return &Merger{}
	case 1:
		return &Merger{l: sources[0]}
	}
	h := len(sources) / 2
	return &Merger{l: subtree(sources[:h]), r: subtree(sources[h:]), out: make([]int64, mergeBlock)}
}

// subtree is the merge of sources, or the source itself when it is alone.
func subtree(sources []Source) Source {
	if len(sources) == 1 {
		return sources[0]
	}
	return NewMerger(sources...)
}

// refill reads src's next block into *rest once *rest is used up, and
// reports src, or nil once src is done.
func refill(src Source, rest *[]int64) (Source, error) {
	if src == nil || len(*rest) > 0 {
		return src, nil
	}
	b, err := src.NextBlock()
	if err != nil {
		return src, err
	}
	if len(b) == 0 {
		return nil, nil
	}
	*rest = b
	return src, nil
}

// NextBlock returns the next globally smallest elements.
func (m *Merger) NextBlock() ([]int64, error) {
	var err error
	if m.l, err = refill(m.l, &m.a); err != nil {
		return nil, err
	}
	if m.r, err = refill(m.r, &m.b); err != nil {
		return nil, err
	}
	if m.l == nil || m.r == nil {
		// At most one child is left: its block is the output.
		b := m.a
		if m.l == nil {
			b = m.b
		}
		m.a, m.b = nil, nil
		return b, nil
	}
	a, b, o := m.a, m.b, m.out
	i, j, k := 0, 0, 0
	for k < len(o) && i < len(a) && j < len(b) {
		// Neither child runs out within the next s steps.
		s := min(len(o)-k, len(a)-i, len(b)-j)
		for end := k + s; k < end; k++ {
			x, y := a[i], b[j]
			c := 0
			if y < x {
				c = 1
			}
			o[k] = min(x, y)
			i += 1 - c
			j += c
		}
	}
	m.a, m.b = a[i:], b[j:]
	return o[:k], nil
}

// WriteRun creates the named file and drains src into it a block at a time,
// calling each (if not nil) on every block in order, and returns the element
// count. A value smaller than its predecessor is refused before the file is
// closed, once each has seen the block's elements before it; on any error
// the partial file is aborted.
func WriteRun(dev *disk.Manager, name string, src Source, each func([]int64)) (int64, error) {
	w, err := dev.Create(name)
	if err != nil {
		return 0, err
	}
	var n int64
	prev := int64(math.MinInt64)
	for {
		b, err := src.NextBlock()
		if err == nil && len(b) == 0 {
			return n, w.Close()
		}
		if err == nil {
			for i, v := range b {
				if v < prev {
					if each != nil {
						each(b[:i])
					}
					err = fmt.Errorf("extsort: run %s is not sorted: element %d is %d after %d", name, n+int64(i), v, prev)
					break
				}
				prev = v
			}
		}
		if err == nil {
			err = w.AppendSlice(b)
		}
		if err != nil {
			w.Abort()
			return 0, err
		}
		if each != nil {
			each(b)
		}
		n += int64(len(b))
	}
}

// OpenRuns opens the named sorted files for one sequential scan each, with
// merge readahead, and returns their k-way merge and a function that closes
// every reader (call it once the merge is drained or abandoned).
func OpenRuns(dev *disk.Manager, names []string) (*Merger, func(), error) {
	readers := make([]*disk.Reader, 0, len(names))
	closeAll := func() {
		for _, r := range readers {
			r.Close() //nolint:errcheck // read-only
		}
	}
	sources := make([]Source, 0, len(names))
	for _, name := range names {
		r, err := dev.OpenSequential(name)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		r.SetReadahead(disk.MergeReadahead)
		readers = append(readers, r)
		sources = append(sources, r)
	}
	return NewMerger(sources...), closeAll, nil
}

// SortSlice sorts a copy of data in memory and writes it to the named output
// file: the kernel and the writer a level-0 install runs.
func SortSlice(dev *disk.Manager, data []int64, out string) error {
	sorted := slices.Clone(data)
	radix.Sort(sorted, nil)
	_, err := WriteRun(dev, out, SliceSource(sorted), nil)
	return err
}
