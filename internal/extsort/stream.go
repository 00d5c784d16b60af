package extsort

import (
	"fmt"
	"slices"

	"repro/internal/disk"
)

// SortedStream externally sorts the unsorted element file `in` using at most
// cfg.MemElements elements of memory and returns a Source that yields its
// elements in sorted order, together with a cleanup function that closes and
// removes the intermediate run files. The caller must drain or abandon the
// Source and then call cleanup.
//
// Returning the final merge instead of writing it lets the partition store
// capture its in-memory summary while writing the sorted partition, so that
// — as the paper requires — "no additional disk access is required for
// computing the summary, beyond those taken for generating the new data
// partition".
func SortedStream(dev *disk.Manager, in string, cfg Config) (src Source, cleanup func(), err error) {
	if err := cfg.setDefaults(dev); err != nil {
		return nil, nil, err
	}
	// runs are the sorted temporaries on the device; next is the pass being
	// written over them.
	var runs, next []string
	removeRuns := func() {
		for _, name := range slices.Concat(runs, next) {
			dev.Remove(name) //nolint:errcheck // cleanup
		}
	}
	// Every failure below leaves through here: the runs written so far go.
	defer func() {
		if err != nil {
			removeRuns()
		}
	}()

	// Pass 0: cut the input into sorted runs of MemElements.
	r, err := dev.OpenSequential(in)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close() //nolint:errcheck // read-only
	r.SetReadahead(disk.MergeReadahead)
	buf := make([]int64, 0, cfg.MemElements)
	for more := true; more; {
		var v int64
		if v, more, err = r.Next(); err != nil {
			return nil, nil, err
		}
		if more {
			buf = append(buf, v)
		}
		if len(buf) == cfg.MemElements || !more && len(buf) > 0 {
			slices.Sort(buf)
			name := fmt.Sprintf("%s-s%d", cfg.TempPrefix, len(runs))
			if _, err = WriteRun(dev, name, SliceSource(buf), nil); err != nil {
				return nil, nil, err
			}
			runs = append(runs, name)
			buf = buf[:0]
		}
	}

	// Merge passes until at most FanIn runs remain; the caller drains the
	// last merge.
	for pass := 1; len(runs) > cfg.FanIn; pass++ {
		for lo := 0; lo < len(runs); lo += cfg.FanIn {
			group := runs[lo:min(lo+cfg.FanIn, len(runs))]
			name := fmt.Sprintf("%s-sp%d-%d", cfg.TempPrefix, pass, lo)
			if err = MergeFiles(dev, group, name); err != nil {
				return nil, nil, err
			}
			next = append(next, name)
			for _, g := range group {
				if err = dev.Remove(g); err != nil {
					return nil, nil, err
				}
			}
		}
		runs, next = next, nil
	}

	m, closeAll, err := OpenRuns(dev, runs)
	if err != nil {
		return nil, nil, err
	}
	return m, func() { closeAll(); removeRuns() }, nil
}
