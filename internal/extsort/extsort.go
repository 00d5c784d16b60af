// Package extsort is the sequential-I/O half of the paper's write path
// (Algorithm 3, Lemma 6): one sort, one merge, one writer.
//
//   - The sort is radix.Sort, the kernel of the store's level-0 install and
//     of GK's flush too, over a batch held in memory; SortSlice is it
//     followed by the writer. Nothing is sorted on the device: a sealed step
//     is in memory until its one write.
//   - WriteRun is the only loop that puts a sorted run on the device: a
//     level-0 partition or a κ-merge output. Callers hand it a Source and,
//     to compute something in flight (the store's HSᵢ capture, Algorithm 2),
//     a per-element callback.
//   - Merger is the only k-way merge; OpenRuns builds one over run files.
//
// WriteRun refuses a value smaller than its predecessor before the file is
// closed. Every later binary search over the run, and every later open of
// the store, depends on that one property and nothing else on the device
// verifies it (columnar blocks carry no checksum), so an input damaged after
// it was written has to stop here — at the merge that read it — rather than
// be copied into a new run that retires its still-sorted siblings.
package extsort

import (
	"fmt"
	"slices"

	"repro/internal/disk"
	"repro/internal/radix"
)

// Source yields elements in non-decreasing order.
type Source interface {
	// Next returns the next element; ok=false signals exhaustion.
	Next() (v int64, ok bool, err error)
}

// sliceSource adapts a sorted slice to a Source.
type sliceSource struct {
	data []int64
	pos  int
}

func (s *sliceSource) Next() (int64, bool, error) {
	if s.pos >= len(s.data) {
		return 0, false, nil
	}
	v := s.data[s.pos]
	s.pos++
	return v, true, nil
}

// SliceSource returns a Source over a slice the caller has sorted. It does
// not verify the order: the run writer does, and returns an error where a
// check here could only panic inside an install.
func SliceSource(sorted []int64) Source { return &sliceSource{data: sorted} }

// Merger performs a streaming k-way merge over sorted sources using a binary
// min-heap of (value, source) pairs. It is the core of partition-level
// merges.
type Merger struct {
	heap []mergeItem
}

type mergeItem struct {
	v   int64
	src Source
}

// NewMerger primes a merger from the given sorted sources. Empty sources are
// dropped.
func NewMerger(sources ...Source) (*Merger, error) {
	m := &Merger{heap: make([]mergeItem, 0, len(sources))}
	for _, s := range sources {
		v, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if ok {
			m.heap = append(m.heap, mergeItem{v, s})
		}
	}
	// Build heap bottom-up.
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

func (m *Merger) siftDown(i int) {
	n := len(m.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && m.heap[l].v < m.heap[small].v {
			small = l
		}
		if r < n && m.heap[r].v < m.heap[small].v {
			small = r
		}
		if small == i {
			return
		}
		m.heap[i], m.heap[small] = m.heap[small], m.heap[i]
		i = small
	}
}

// Next returns the globally smallest remaining element.
func (m *Merger) Next() (int64, bool, error) {
	if len(m.heap) == 0 {
		return 0, false, nil
	}
	top := m.heap[0]
	v, ok, err := top.src.Next()
	if err != nil {
		return 0, false, err
	}
	if ok {
		m.heap[0].v = v
		m.siftDown(0)
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
		if len(m.heap) > 0 {
			m.siftDown(0)
		}
	}
	return top.v, true, nil
}

// WriteRun creates the named file and drains src into it, calling each (if
// not nil) on every element in order, and returns the element count. A value
// smaller than its predecessor is refused before the file is closed; on any
// error the partial file is aborted.
func WriteRun(dev *disk.Manager, name string, src Source, each func(int64)) (int64, error) {
	w, err := dev.Create(name)
	if err != nil {
		return 0, err
	}
	var n, prev int64
	for {
		v, ok, err := src.Next()
		switch {
		case err != nil:
		case !ok:
			return n, w.Close()
		case n > 0 && v < prev:
			err = fmt.Errorf("extsort: run %s is not sorted: element %d is %d after %d", name, n, v, prev)
		default:
			err = w.Append(v)
		}
		if err != nil {
			w.Abort()
			return 0, err
		}
		if each != nil {
			each(v)
		}
		prev = v
		n++
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
	m, err := NewMerger(sources...)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	return m, closeAll, nil
}

// SortSlice sorts a copy of data in memory and writes it to the named output
// file: the kernel and the writer a level-0 install runs.
func SortSlice(dev *disk.Manager, data []int64, out string) error {
	sorted := slices.Clone(data)
	radix.Sort(sorted, nil)
	_, err := WriteRun(dev, out, SliceSource(sorted), nil)
	return err
}
