package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/extsort"
)

// TestMergeRefusesUnsortedInput: a partition damaged on the device after it
// was written (same count, order broken — nothing in either block format
// notices that on its own) stops the merge that reads it. The merge output
// is aborted, nothing is retired, the store still commits and every other
// partition still serves; only the damaged file itself fails a reopen. Once
// the file is repaired the next install completes the merge.
func TestMergeRefusesUnsortedInput(t *testing.T) {
	for _, format := range []disk.BlockFormat{disk.FormatRaw, disk.FormatColumnar} {
		t.Run(format.String(), func(t *testing.T) {
			dev := newDev(t)
			if err := dev.SetBlockFormat(format); err != nil {
				t.Fatal(err)
			}
			cfg := Config{Kappa: 2, Eps1: 0.1}
			s, err := NewStore(dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for step := 1; step <= 2; step++ {
				if _, err := s.AddBatch(seqBatch(int64(step)*1000, 40), step); err != nil {
					t.Fatal(err)
				}
			}
			const damaged = "part-000000.dat"
			rewrite := func(vals []int64) {
				t.Helper()
				w, err := dev.Create(damaged)
				if err == nil {
					err = w.AppendSlice(vals)
				}
				if err == nil {
					err = w.Close()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			backwards := seqBatch(1000, 40)
			slices.Reverse(backwards)
			rewrite(backwards)

			// Step 3 overflows level 0 (κ = 2): the step is installed, its
			// merge is refused.
			_, err = s.AddBatch(seqBatch(3000, 40), 3)
			if !errors.Is(err, ErrMergeIncomplete) {
				t.Fatalf("AddBatch over a backwards input: err = %v, want ErrMergeIncomplete", err)
			}
			if !strings.Contains(err.Error(), "not sorted") {
				t.Errorf("error does not say why the merge stopped: %v", err)
			}
			if got := s.PartitionCount(); got != 3 {
				t.Fatalf("PartitionCount = %d, want 3 (inputs live, no merge output)", got)
			}
			if got := s.TotalCount(); got != 120 {
				t.Errorf("TotalCount = %d, want 120", got)
			}
			for _, e := range s.Entries() {
				if e.Part.Name() == damaged {
					continue
				}
				if e.Part.Level != 0 {
					t.Errorf("published %s: a merge output", e.Part)
				}
				if got := readPartition(t, e.Part); len(got) != 40 || !slices.IsSorted(got) {
					t.Errorf("published %s does not read back sorted", e.Part)
				}
			}
			if err := s.Commit("MANIFEST.json"); err != nil {
				t.Fatalf("commit after the refused merge: %v", err)
			}
			if names, err := dev.List("part-"); err != nil || len(names) != 3 {
				t.Errorf("partition files on the device: %v (err %v), want the 3 inputs", names, err)
			}
			// A reopen fails on the damaged input's own name, never on a
			// partition this store wrote from it.
			if _, err := LoadStore(dev, "MANIFEST.json", cfg); err == nil || !strings.Contains(err.Error(), damaged) {
				t.Errorf("LoadStore = %v, want a refusal naming %s", err, damaged)
			}

			// The error repeats until the file is repaired ...
			if _, err := s.AddBatch(seqBatch(4000, 40), 4); !errors.Is(err, ErrMergeIncomplete) {
				t.Fatalf("second AddBatch over the backwards input: err = %v, want ErrMergeIncomplete", err)
			}
			// ... and then the next install completes the merge: the oldest
			// κ+1 partitions of level 0 (steps 1-3) go a level up, and steps
			// 4 and 5 stay at level 0, as if no merge had ever failed.
			rewrite(seqBatch(1000, 40))
			if _, err := s.AddBatch(seqBatch(5000, 40), 5); err != nil {
				t.Fatalf("AddBatch after the repair: %v", err)
			}
			if got := s.PartitionCount(); got != 3 {
				t.Fatalf("PartitionCount after the repair = %d, want 3", got)
			}
			merged := s.Entries()[0].Part
			if got := readPartition(t, merged); len(got) != 120 || merged.EndStep != 3 || !slices.IsSorted(got) {
				t.Errorf("merged %s: %d elements, sorted=%v", merged, len(got), slices.IsSorted(got))
			}
			if err := s.Commit("MANIFEST.json"); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadStore(dev, "MANIFEST.json", cfg); err != nil {
				t.Errorf("LoadStore after the repair: %v", err)
			}
		})
	}
}

// TestLoadStoreRefusesUnsortedPartition: hydration's scan checks the order
// of what it reads, inside each block and across block boundaries. A
// partition rewritten as raw blocks (format 0 carries no checksum, so
// nothing else notices) that steps backwards once, at either place, is
// refused by LoadStore with an error naming the file; rewritten sorted, it
// loads.
func TestLoadStoreRefusesUnsortedPartition(t *testing.T) {
	const name = "part-000000.dat"
	for _, tc := range []struct {
		desc string
		at   int // the element that steps below its predecessor
	}{
		{"inside a block", 3},
		{"across a block boundary", 8}, // the first of the second 8-value block
	} {
		t.Run(tc.desc, func(t *testing.T) {
			dev := newDev(t)
			cfg := Config{Kappa: 2, Eps1: 0.1}
			s, err := NewStore(dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.AddBatch(seqBatch(1000, 40), 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit("MANIFEST.json"); err != nil {
				t.Fatal(err)
			}
			rewrite := func(vals []int64) {
				t.Helper()
				w, err := dev.CreateFormat(name, disk.FormatRaw)
				if err == nil {
					err = w.AppendSlice(vals)
				}
				if err == nil {
					err = w.Close()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			vals := seqBatch(1000, 40)
			vals[tc.at] = vals[tc.at-1] - 5 // the one descent, from element at-1 to at
			rewrite(vals)
			_, err = LoadStore(dev, "MANIFEST.json", cfg)
			if err == nil || !strings.Contains(err.Error(), "is not sorted on disk") || !strings.Contains(err.Error(), name) {
				t.Fatalf("LoadStore = %v, want a refusal naming %s as not sorted", err, name)
			}
			rewrite(seqBatch(1000, 40))
			if _, err := LoadStore(dev, "MANIFEST.json", cfg); err != nil {
				t.Fatalf("LoadStore after the repair: %v", err)
			}
		})
	}
}

// benchStore returns a store on the heap backend with columnar 100 KB
// blocks, holding 11 level-0 partitions of n random values each (κ = 11,
// so none has merged), and the partitions' summaries.
func benchStore(b *testing.B, n int) (*Store, []*Summary) {
	b.Helper()
	dev, err := disk.NewManagerOn(disk.NewMemBackend(), disk.DefaultBlockSize)
	if err == nil {
		err = dev.SetBlockFormat(disk.FormatColumnar)
	}
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewStore(dev, Config{Kappa: 11, Eps1: 0.005})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for step := 1; step <= 11; step++ {
		batch := make([]int64, n)
		for i := range batch {
			batch[i] = rng.Int63n(1 << 40)
		}
		if _, err := s.AddBatch(batch, step); err != nil {
			b.Fatal(err)
		}
	}
	return s, s.Entries()
}

// BenchmarkMerge times one κ-merge of 11 runs of n values — the merge tree,
// the run writer, the summary capture and the columnar encoder — and reports
// ns per merged value.
func BenchmarkMerge(b *testing.B) {
	for _, n := range []int{1000, 10000, 32768} {
		b.Run(fmt.Sprintf("runs=11/n=%d", n), func(b *testing.B) {
			s, run := benchStore(b, n)
			b.ResetTimer()
			for range b.N {
				sum, err := s.mergeLevel(s.dev, run)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := s.dev.Remove(sum.Part.name); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*11*n), "ns/value")
		})
	}
}

// BenchmarkInstall times the write of one sorted n-value step as a level-0
// partition, its summary captured in flight — InstallOne past the seal's
// sort — and reports ns per value.
func BenchmarkInstall(b *testing.B) {
	for _, n := range []int{1000, 10000, 32768} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, run := benchStore(b, n)
			data := readPartition(b, run[0].Part)
			part := &Partition{Count: int64(n), dev: s.dev, name: "install.dat"}
			b.ResetTimer()
			for range b.N {
				if _, err := s.writeRun(s.dev, extsort.SliceSource(data), part); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
		})
	}
}
