package extsort

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
)

// newMemDev builds a manager over the in-memory backend with the same
// geometry as newDev, so the storage seam can be exercised without files.
func newMemDev(t *testing.T) *disk.Manager {
	t.Helper()
	m, err := disk.NewManagerOn(disk.NewMemBackend(), 64) // 8 elements per block
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSortFileMemBackend runs the external sort end to end on the memory
// backend: spill runs, merge passes and the final sorted file all live on
// the backend, with identical results and I/O accounting semantics.
func TestSortFileMemBackend(t *testing.T) {
	dev := newMemDev(t)
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = rng.Int63n(10_000) - 5000
	}
	writeFile(t, dev, "in.dat", vals)

	// MemElements 64 forces multiple runs and a real multi-way merge.
	n, err := sortFile(dev, "in.dat", "out.dat", Config{MemElements: 64})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(vals)) {
		t.Fatalf("sorted %d elements, want %d", n, len(vals))
	}
	want := slices.Clone(vals)
	slices.Sort(want)
	if got := readAll(t, dev, "out.dat"); !slices.Equal(got, want) {
		t.Error("mem-backend sort produced wrong order")
	}
	if st := dev.Stats(); st.SeqWrites == 0 || st.SeqReads == 0 {
		t.Errorf("external sort on mem backend accounted no I/O: %+v", st)
	}
}

// TestMergeFilesMemBackend checks the k-way file merge over the seam.
func TestMergeFilesMemBackend(t *testing.T) {
	dev := newMemDev(t)
	writeFile(t, dev, "a.dat", []int64{1, 4, 7})
	writeFile(t, dev, "b.dat", []int64{2, 5, 8})
	writeFile(t, dev, "c.dat", []int64{3, 6, 9})
	if err := MergeFiles(dev, []string{"a.dat", "b.dat", "c.dat"}, "m.dat"); err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := readAll(t, dev, "m.dat"); !slices.Equal(got, want) {
		t.Errorf("merged = %v, want %v", got, want)
	}
}
