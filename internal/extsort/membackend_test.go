package extsort

import (
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

// TestMergeFilesMemBackend checks the k-way file merge over the seam.
func TestMergeFilesMemBackend(t *testing.T) {
	dev := newMemDev(t)
	writeFile(t, dev, "a.dat", []int64{1, 4, 7})
	writeFile(t, dev, "b.dat", []int64{2, 5, 8})
	writeFile(t, dev, "c.dat", []int64{3, 6, 9})
	mergeFiles(t, dev, []string{"a.dat", "b.dat", "c.dat"}, "m.dat")
	want := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := readAll(t, dev, "m.dat"); !slices.Equal(got, want) {
		t.Errorf("merged = %v, want %v", got, want)
	}
}
