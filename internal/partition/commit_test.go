package partition

import (
	"path"
	"slices"
	"testing"
)

// TestCommitDefersRemovals pins the crash-consistent removal order: files
// superseded by a merge (the merged-away inputs) and raw batch spills must
// survive until Commit — the last committed manifest may still reference
// them — and disappear right after it.
func TestCommitDefersRemovals(t *testing.T) {
	dev := newDev(t)
	s, err := NewStore(dev, Config{Kappa: 2, Eps1: 0.1, SpillBatches: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(base int64) []int64 {
		out := make([]int64, 40)
		for i := range out {
			out[i] = base + int64(i)
		}
		return out
	}
	for step := 1; step <= 2; step++ {
		if _, err := s.AddBatch(batch(int64(step)*1000), step); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	// Step 3 merges the two level-0 partitions (κ=2): inputs 0 and 1 are
	// superseded but must still exist before the next commit.
	bd, err := s.AddBatch(batch(3000), 3)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Merges != 1 {
		t.Fatalf("Merges = %d, want 1", bd.Merges)
	}
	for _, name := range []string{"part-000000.dat", "part-000001.dat"} {
		if !dev.Exists(name) {
			t.Errorf("%s removed before commit — a crash here would break the committed manifest", name)
		}
	}
	if err := s.Commit("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"part-000000.dat", "part-000001.dat"} {
		if dev.Exists(name) {
			t.Errorf("%s still present after commit", name)
		}
	}
	names, err := dev.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		for _, pat := range tempFilePatterns {
			if ok, _ := path.Match(pat, n); ok {
				t.Errorf("unexpected leftover after commit: %s", n)
			}
		}
	}

	// The committed state must load, and loading must not touch live files.
	s2, err := LoadStore(dev, "MANIFEST.json", Config{Kappa: 2, Eps1: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if s2.TotalCount() != s.TotalCount() || s2.Steps() != 3 {
		t.Errorf("reloaded store = %d elements / %d steps, want %d / 3", s2.TotalCount(), s2.Steps(), s.TotalCount())
	}
}

// TestCollectOrphans pins the recovery collector: debris matching the
// install patterns goes, everything referenced (or foreign) stays.
func TestCollectOrphans(t *testing.T) {
	dev := newDev(t)
	write := func(name string) {
		t.Helper()
		w, err := dev.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(1); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("part-000007.dat")      // referenced: must stay
	write("part-000099.dat")      // unreferenced partition: orphan
	write("batch-raw-000099.dat") // spill: orphan
	write("sort-000099-0")        // an earlier build's sort run: orphan
	write("pmerge-000099-r0.tmp") // parallel-merge run: orphan
	write("unrelated.bin")        // foreign file: must stay
	if err := dev.WriteMeta("MANIFEST.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}

	removed, err := CollectOrphans(dev, map[string]bool{"MANIFEST.json": true, "part-000007.dat": true})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(removed)
	want := []string{"batch-raw-000099.dat", "part-000099.dat", "pmerge-000099-r0.tmp", "sort-000099-0"}
	if !slices.Equal(removed, want) {
		t.Errorf("removed %v, want %v", removed, want)
	}
	for _, name := range []string{"part-000007.dat", "unrelated.bin", "MANIFEST.json"} {
		if !dev.Exists(name) {
			t.Errorf("%s wrongly collected", name)
		}
	}

	// Namespaced views only collect their own namespace.
	view, err := dev.Namespace("streams/other")
	if err != nil {
		t.Fatal(err)
	}
	w, err := view.Create("part-000001.dat")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := CollectOrphans(dev, map[string]bool{"part-000007.dat": true}); err != nil {
		t.Fatal(err)
	}
	if !view.Exists("part-000001.dat") {
		t.Error("root-view collection reached into a nested namespace")
	}
	if removed, err := CollectOrphans(view, nil); err != nil || len(removed) != 1 {
		t.Errorf("view collection = %v, %v; want 1 removal", removed, err)
	}
}
