// Package partition implements the paper's historical data structures: the
// on-disk leveled store HD (sorted partitions with merge threshold κ,
// Section 2.1 / Algorithm 3) and the in-memory summary HS (elements of each
// partition at exactly known ranks, Algorithm 2), together with the
// query-time cursors that binary-search partitions at block granularity
// (Algorithm 8) and the window bookkeeping for partition-aligned windowed
// queries (Section 2.4, "Queries Over Windows").
package partition

import (
	"fmt"

	"repro/internal/disk"
)

// Partition is one immutable sorted run on disk, covering a contiguous range
// of time steps.
type Partition struct {
	// ID is unique within a Store and determines the file name.
	ID int64
	// Level is the partition's level in HD; level 0 holds single batches.
	Level int
	// Count is the number of elements.
	Count int64
	// StartStep and EndStep are the inclusive time-step range covered.
	StartStep, EndStep int

	dev  *disk.Manager
	name string
}

// Name returns the partition's file name on the device.
func (p *Partition) Name() string { return p.name }

// Steps returns the number of time steps the partition covers.
func (p *Partition) Steps() int { return p.EndStep - p.StartStep + 1 }

// OpenRandom opens the partition for random block reads.
func (p *Partition) OpenRandom() (*disk.RandomReader, error) {
	return p.dev.OpenRandom(p.name)
}

// OpenSequential opens the partition for a sequential scan.
func (p *Partition) OpenSequential() (*disk.Reader, error) {
	return p.dev.OpenSequential(p.name)
}

func (p *Partition) String() string {
	return fmt.Sprintf("P%d(level=%d steps=[%d,%d] count=%d)", p.ID, p.Level, p.StartStep, p.EndStep, p.Count)
}
