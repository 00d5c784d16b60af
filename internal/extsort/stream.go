package extsort

import (
	"fmt"
	"slices"

	"repro/internal/disk"
	"repro/internal/radix"
)

// SortedStream externally sorts data, a batch already in memory, using at
// most cfg.MemElements elements of working memory: it cuts data into runs of
// MemElements/2, sorts a copy of each with a scratch as large and writes it
// as a run file, merges the runs in passes of at most FanIn, and returns a
// Source over the final merge together with a cleanup function that closes
// and removes the run files. data is only read. The caller must drain or
// abandon the Source and then call cleanup.
//
// Returning the final merge instead of writing it lets the partition store
// capture its in-memory summary while writing the sorted partition, so that
// — as the paper requires — "no additional disk access is required for
// computing the summary, beyond those taken for generating the new data
// partition".
func SortedStream(dev *disk.Manager, data []int64, cfg Config) (src Source, cleanup func(), err error) {
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

	// Pass 0: cut the batch into sorted runs.
	size := max(cfg.MemElements/2, 1)
	var buf, scratch []int64
	for lo := 0; lo < len(data); lo += size {
		buf = append(buf[:0], data[lo:min(lo+size, len(data))]...)
		scratch = radix.Sort(buf, scratch)
		name := fmt.Sprintf("%s-s%d", cfg.TempPrefix, len(runs))
		if _, err = WriteRun(dev, name, SliceSource(buf), nil); err != nil {
			return nil, nil, err
		}
		runs = append(runs, name)
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
