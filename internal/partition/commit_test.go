package partition

import (
	"bytes"
	"encoding/json"
	"errors"
	"path"
	"slices"
	"testing"

	"repro/internal/disk"
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
	write("SUMMARY.bin.tmp")      // interrupted metadata write: orphan
	write("batch-raw-000099.dat") // an earlier build's spill: foreign now, must stay
	write("sort-000099-0")        // an earlier build's sort run: foreign now, must stay
	write("unrelated.bin")        // foreign file: must stay
	if err := dev.WriteMeta("MANIFEST.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}

	removed, err := CollectOrphans(dev, map[string]bool{"MANIFEST.json": true, "part-000007.dat": true})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(removed)
	want := []string{"SUMMARY.bin.tmp", "part-000099.dat"}
	if !slices.Equal(removed, want) {
		t.Errorf("removed %v, want %v", removed, want)
	}
	for _, name := range []string{"part-000007.dat", "batch-raw-000099.dat", "sort-000099-0", "unrelated.bin", "MANIFEST.json"} {
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

// commitCounter counts the manifest writes and barriers a store makes, and
// refuses Remove while refuse is set.
type commitCounter struct {
	disk.Backend
	metaWrites, syncs int
	refuse            bool
}

func (b *commitCounter) WriteMeta(name string, data []byte) error {
	b.metaWrites++
	return b.Backend.WriteMeta(name, data)
}

func (b *commitCounter) Sync() error {
	b.syncs++
	return b.Backend.Sync()
}

func (b *commitCounter) Remove(name string) error {
	if b.refuse {
		return errors.New("remove refused")
	}
	return b.Backend.Remove(name)
}

// TestUnchangedCommitWritesNothing: a commit whose version seq and NextID
// equal the last successful commit's writes and syncs nothing, but still
// reclaims retired files; any change — an install, a failed install that
// sealed a step, a failed merge that only advanced NextID — is written with
// its two barriers.
func TestUnchangedCommitWritesNothing(t *testing.T) {
	cb := &commitCounter{Backend: disk.NewMemBackend()}
	dev, err := disk.NewManagerOn(cb, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := newStore(t, dev, 2, 0.1)
	commit := func(label string, metaWrites, syncs int) {
		t.Helper()
		cb.metaWrites, cb.syncs = 0, 0
		if err := s.Commit("MANIFEST.json"); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if cb.metaWrites != metaWrites || cb.syncs != syncs {
			t.Errorf("%s: commit made %d manifest writes and %d syncs, want %d and %d",
				label, cb.metaWrites, cb.syncs, metaWrites, syncs)
		}
	}
	if _, err := s.AddBatch(seqBatch(1000, 40), 1); err != nil {
		t.Fatal(err)
	}
	commit("after an install", 1, 2)
	commit("a second commit with nothing new", 0, 0)

	// A failed install seals its step and advances NextID.
	dev.SetFault(func(op disk.Op, name string, block int64) error {
		if op == disk.OpSeqWrite {
			return errors.New("injected write fault")
		}
		return nil
	})
	if _, err := s.AddBatch(seqBatch(2000, 40), 2); err == nil {
		t.Fatal("AddBatch succeeded under a write fault")
	}
	commit("after a failed install", 1, 2)
	commit("again with nothing new", 0, 0)

	// Step 3's install makes a merge due, which fails on its inputs' reads;
	// a retried merge that fails again advances NextID alone.
	dev.SetFault(func(op disk.Op, name string, block int64) error {
		if op == disk.OpSeqRead {
			return errors.New("injected read fault")
		}
		return nil
	})
	if _, err := s.AddBatch(seqBatch(3000, 40), 3); !errors.Is(err, ErrMergeIncomplete) {
		t.Fatalf("AddBatch under a read fault: %v, want ErrMergeIncomplete", err)
	}
	commit("after the installs", 1, 2)
	if merged, _, err := s.Merge(); merged || err == nil {
		t.Fatalf("Merge under a read fault: merged %v, err %v", merged, err)
	}
	commit("after a failed merge", 1, 2)
	commit("again with nothing new", 0, 0)

	// The merge runs; its inputs' removals are refused, then retried by a
	// commit with nothing new.
	dev.SetFault(nil)
	if merged, _, err := s.Merge(); !merged || err != nil {
		t.Fatalf("Merge: merged %v, err %v", merged, err)
	}
	cb.refuse = true
	commit("after the merge", 1, 2)
	if !s.MayHoldOrphans() {
		t.Error("MayHoldOrphans = false with refused removals queued")
	}
	inputs := 0
	for _, n := range []string{"part-000000.dat", "part-000001.dat", "part-000002.dat"} {
		if dev.Exists(n) {
			inputs++
		}
	}
	if inputs != 3 {
		t.Fatalf("%d of the merge's 3 inputs on the device after refused removals, want 3", inputs)
	}
	cb.refuse = false
	commit("a reclaiming commit with nothing new", 0, 0)
	for _, n := range []string{"part-000000.dat", "part-000001.dat", "part-000002.dat"} {
		if dev.Exists(n) {
			t.Errorf("%s survived the reclaiming commit", n)
		}
	}
}

// TestManifestReadsIndented: Commit writes compact JSON, and LoadStore reads
// it and the indented layout earlier builds wrote alike.
func TestManifestReadsIndented(t *testing.T) {
	dev, err := disk.NewManagerOn(disk.NewMemBackend(), 64)
	if err != nil {
		t.Fatal(err)
	}
	s := newStore(t, dev, 3, 0.1)
	for step := 1; step <= 2; step++ {
		if _, err := s.AddBatch(seqBatch(int64(step)*1000, 40), step); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	compact, err := dev.ReadMeta("MANIFEST.json")
	if err != nil {
		t.Fatal(err)
	}
	indented := []byte(`{
  "version": 1,
  "kappa": 3,
  "eps1": 0.1,
  "next_id": 2,
  "steps": 2,
  "partitions": [
    {
      "id": 0,
      "level": 0,
      "count": 40,
      "start_step": 1,
      "end_step": 1,
      "name": "part-000000.dat"
    },
    {
      "id": 1,
      "level": 0,
      "count": 40,
      "start_step": 2,
      "end_step": 2,
      "name": "part-000001.dat"
    }
  ]
}`)
	m, err := ParseManifest(compact)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.MarshalIndent(m, "", "  "); !bytes.Equal(indented, want) {
		t.Fatalf("the indented literal is not the store's manifest in the earlier layout:\n%s", want)
	}
	if want, _ := json.Marshal(m); !bytes.Equal(compact, want) {
		t.Errorf("Commit wrote %s, want compact JSON %s", compact, want)
	}
	for label, data := range map[string][]byte{"compact": compact, "indented": indented} {
		if err := dev.WriteMeta("MANIFEST.json", data); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadStore(dev, "MANIFEST.json", Config{Kappa: 3, Eps1: 0.1})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got, want := loaded.Describe(), s.Describe(); !slices.Equal(got, want) || loaded.TotalCount() != 80 {
			t.Errorf("%s: loaded %+v (%d values), want %+v (80)", label, got, loaded.TotalCount(), want)
		}
	}
}
