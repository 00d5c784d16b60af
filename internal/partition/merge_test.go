package partition

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/disk"
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
			// ... and then the next install completes the merge.
			rewrite(seqBatch(1000, 40))
			if _, err := s.AddBatch(seqBatch(5000, 40), 5); err != nil {
				t.Fatalf("AddBatch after the repair: %v", err)
			}
			if got := s.PartitionCount(); got != 1 {
				t.Fatalf("PartitionCount after the repair = %d, want 1", got)
			}
			merged := s.Entries()[0].Part
			if got := readPartition(t, merged); len(got) != 200 || !slices.IsSorted(got) {
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
