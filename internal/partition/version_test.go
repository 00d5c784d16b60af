package partition

import (
	"fmt"
	"math/rand"
	"testing"
)

// seqBatch returns base..base+n-1.
func seqBatch(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// TestPinKeepsMergedInputsAlive is the snapshot-isolation core contract: a
// pinned version keeps the partition files a later merge supersedes on
// disk (and readable) past the commit that would otherwise remove them;
// releasing the pin reclaims them.
func TestPinKeepsMergedInputsAlive(t *testing.T) {
	dev := newDev(t)
	s, err := NewStore(dev, Config{Kappa: 2, Eps1: 0.1, SortMemElements: 1 << 16, SpillBatches: true})
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 2; step++ {
		if _, err := s.AddBatch(seqBatch(int64(step)*1000, 40), step); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}

	v := s.Pin()
	if v.PartitionCount() != 2 || v.TotalCount() != 80 {
		t.Fatalf("pinned version: %d partitions / %d elements, want 2 / 80", v.PartitionCount(), v.TotalCount())
	}

	// Step 3 merges the two level-0 partitions (κ=2) and commits: without
	// the pin, the inputs would be removed here.
	if _, err := s.AddBatch(seqBatch(3000, 40), 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"part-000000.dat", "part-000002.dat"} {
		if !dev.Exists(name) {
			t.Errorf("%s reclaimed while a version pinning it was live", name)
		}
	}
	// The pinned snapshot is still fully readable (a query mid-flight).
	for _, sum := range v.Entries() {
		r, err := sum.Part.OpenSequential()
		if err != nil {
			t.Fatalf("read pinned partition %s: %v", sum.Part.Name(), err)
		}
		n := 0
		for {
			_, ok, err := r.Next()
			if err != nil {
				t.Fatalf("scan pinned partition: %v", err)
			}
			if !ok {
				break
			}
			n++
		}
		r.Close() //nolint:errcheck
		if int64(n) != sum.Part.Count {
			t.Errorf("pinned partition %s: read %d elements, want %d", sum.Part.Name(), n, sum.Part.Count)
		}
	}
	// The new current version sees the merged layout.
	if got := s.PartitionCount(); got != 1 {
		t.Errorf("current version has %d partitions, want 1 (merged)", got)
	}

	v.Release()
	for _, name := range []string{"part-000000.dat", "part-000002.dat"} {
		if dev.Exists(name) {
			t.Errorf("%s not reclaimed after the last pin released", name)
		}
	}
	if got := s.LiveVersions(); got != 1 {
		t.Errorf("%d live versions after release, want 1 (current)", got)
	}
}

// TestReclaimWaitsForCommit pins the other half of the reclaim condition:
// even with no pins, files retired by a merge survive until a manifest
// without them is durably committed.
func TestReclaimWaitsForCommit(t *testing.T) {
	dev := newDev(t)
	s, err := NewStore(dev, Config{Kappa: 2, Eps1: 0.1, SortMemElements: 1 << 16, SpillBatches: true})
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 3; step++ {
		if _, err := s.AddBatch(seqBatch(int64(step)*1000, 40), step); err != nil {
			t.Fatal(err)
		}
	}
	// Step 3 merged parts 0 and 2; no commit yet — both must survive.
	for _, name := range []string{"part-000000.dat", "part-000002.dat"} {
		if !dev.Exists(name) {
			t.Errorf("%s removed before any commit", name)
		}
	}
	if err := s.Commit("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"part-000000.dat", "part-000002.dat"} {
		if dev.Exists(name) {
			t.Errorf("%s survives a commit with no pins", name)
		}
	}
}

// TestSealInstallRoundtrip drives the write path at the store level: Seal +
// Commit leave a durable spill + pending manifest entry, InstallOne + Commit
// fold it into a partition and retire the spill, and a LoadStore in between
// recovers the pending entry.
func TestSealInstallRoundtrip(t *testing.T) {
	dev := newDev(t)
	cfg := Config{Kappa: 2, Eps1: 0.1, SortMemElements: 1 << 16, SpillBatches: true}
	s, err := NewStore(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, step, err := s.Seal(seqBatch(1000, 50))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	if step != 1 {
		t.Fatalf("sealed step = %d, want 1", step)
	}
	if s.PendingSteps() != 1 || s.PendingElements() != 50 {
		t.Fatalf("pending = %d steps / %d elements, want 1 / 50", s.PendingSteps(), s.PendingElements())
	}
	if s.TotalCount() != 50 || s.Steps() != 1 {
		t.Fatalf("TotalCount/Steps = %d/%d, want 50/1", s.TotalCount(), s.Steps())
	}
	if s.PartitionCount() != 0 {
		t.Fatalf("PartitionCount = %d before install", s.PartitionCount())
	}
	if !dev.Exists("batch-raw-000000.dat") {
		t.Fatal("seal left no spill")
	}

	// A reload at this point must recover the pending entry, not drop it.
	loaded, err := LoadStore(dev, "MANIFEST.json", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.PendingSteps() != 1 || loaded.Steps() != 1 || loaded.TotalCount() != 50 {
		t.Fatalf("reloaded: pending=%d steps=%d total=%d, want 1/1/50", loaded.PendingSteps(), loaded.Steps(), loaded.TotalCount())
	}

	bd, installed, err := loaded.InstallOne()
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Commit("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	if installed != 1 {
		t.Fatalf("installed step = %d, want 1", installed)
	}
	if bd.SortIO.Total() == 0 {
		t.Error("install reported no maintenance I/O")
	}
	if loaded.PendingSteps() != 0 || loaded.PartitionCount() != 1 {
		t.Fatalf("after install: pending=%d partitions=%d, want 0/1", loaded.PendingSteps(), loaded.PartitionCount())
	}
	if dev.Exists("batch-raw-000000.dat") {
		t.Error("spill survived its install's commit")
	}
	// Idempotent when drained.
	if _, installed, err := loaded.InstallOne(); err != nil || installed != 0 {
		t.Fatalf("InstallOne on drained store: step=%d err=%v", installed, err)
	}
}

// TestVersionEntriesChronological pins the one partition order as an
// invariant of publish: whatever the levels hold — fresh level-0 installs,
// cascading merges, a sealed backlog waiting — every published version
// lists its partitions oldest first, tiling (0, InstalledSteps] without a
// gap, with levels that never increase along the list. A second goroutine pins while
// installs run, so the version published between an install and its merges
// is checked too.
func TestVersionEntriesChronological(t *testing.T) {
	check := func(t *testing.T, v *Version) {
		t.Helper()
		next := 1
		for i, e := range v.Entries() {
			if e.Part.StartStep != next || e.Part.EndStep < e.Part.StartStep {
				t.Errorf("version %d entry %d covers steps [%d, %d], want it to start at %d",
					v.Seq(), i, e.Part.StartStep, e.Part.EndStep, next)
				return
			}
			// Each level is one run of the list: levels never increase
			// along it, which is what the store's merges rest on.
			if i > 0 && e.Part.Level > v.Entries()[i-1].Part.Level {
				t.Errorf("version %d entry %d is at level %d after a level-%d entry",
					v.Seq(), i, e.Part.Level, v.Entries()[i-1].Part.Level)
				return
			}
			next = e.Part.EndStep + 1
		}
		if next-1 != v.InstalledSteps() {
			t.Errorf("version %d entries end at step %d, InstalledSteps = %d", v.Seq(), next-1, v.InstalledSteps())
		}
	}
	for _, kappa := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("kappa=%d", kappa), func(t *testing.T) {
			s, err := NewStore(newDev(t), Config{Kappa: kappa, Eps1: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(31*kappa + 1)))
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					v := s.Pin()
					check(t, v)
					v.Release()
				}
			}()
			levels := 0
			for s.Steps() < 60 {
				// Seal a few steps, then install some of them: versions
				// are published with and without a backlog behind them.
				for i := 1 + rng.Intn(3); i > 0; i-- {
					if _, _, err := s.Seal(seqBatch(rng.Int63n(1<<20), 1+rng.Intn(40))); err != nil {
						t.Fatal(err)
					}
				}
				for i := rng.Intn(4); i > 0; i-- {
					if _, _, err := s.InstallOne(); err != nil {
						t.Fatal(err)
					}
					v := s.Pin()
					check(t, v)
					v.Release()
				}
				levels = max(levels, s.Levels())
			}
			close(stop)
			<-done
			if levels < 2 {
				t.Fatalf("only %d level(s) ever held partitions: no merge cascaded, test is vacuous", levels)
			}
		})
	}
}
