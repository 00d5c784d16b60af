package partition

import (
	"slices"
	"testing"

	"repro/internal/disk"
)

// TestStoreMemBackend exercises the full store lifecycle — batch loads,
// cascading merges, cursor searches, manifest save/reload — on the
// in-memory backend. Semantics must match the file backend exactly.
func TestStoreMemBackend(t *testing.T) {
	dev, err := disk.NewManagerOn(disk.NewMemBackend(), 64) // 8 elements per block
	if err != nil {
		t.Fatal(err)
	}
	s := newStore(t, dev, 2, 0.1)

	var all []int64
	for step := 1; step <= 5; step++ {
		batch := make([]int64, 100)
		for i := range batch {
			batch[i] = int64((step*31 + i*17) % 1000)
		}
		all = append(all, batch...)
		if _, err := s.AddBatch(batch, step); err != nil {
			t.Fatal(err)
		}
	}
	if s.TotalCount() != int64(len(all)) {
		t.Fatalf("TotalCount = %d, want %d", s.TotalCount(), len(all))
	}
	slices.Sort(all)

	// Every partition must be sorted on the backend; spot-check contents.
	var total int64
	for _, sum := range s.Entries() {
		got := readPartition(t, sum.Part)
		if !slices.IsSorted(got) {
			t.Errorf("partition %v not sorted", sum.Part)
		}
		total += int64(len(got))
	}
	if total != int64(len(all)) {
		t.Errorf("elements on backend = %d, want %d", total, len(all))
	}

	// Cursor rank search against the exact sorted data.
	for _, z := range []int64{-1, 0, 250, 500, 999, 2000} {
		var histRank int64
		for _, sum := range s.Entries() {
			cur, err := NewCursor(sum, z, z, true)
			if err != nil {
				t.Fatal(err)
			}
			r, err := cur.Rank(z)
			cur.Close() //nolint:errcheck
			if err != nil {
				t.Fatal(err)
			}
			histRank += r
		}
		want := int64(0)
		for _, v := range all {
			if v <= z {
				want++
			}
		}
		if histRank != want {
			t.Errorf("rank(%d) = %d, want %d", z, histRank, want)
		}
	}

	// Manifest round-trip on the same backend (mem engines can checkpoint
	// within a process).
	if err := s.Commit("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadStore(dev, "MANIFEST.json", Config{Kappa: 2, Eps1: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if s2.TotalCount() != s.TotalCount() || s2.PartitionCount() != s.PartitionCount() {
		t.Errorf("reloaded store: count=%d parts=%d, want count=%d parts=%d",
			s2.TotalCount(), s2.PartitionCount(), s.TotalCount(), s.PartitionCount())
	}
}
