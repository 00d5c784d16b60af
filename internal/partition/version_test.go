package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/disk"
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
	s, err := NewStore(dev, Config{Kappa: 2, Eps1: 0.1, SpillBatches: true})
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
	s, err := NewStore(dev, Config{Kappa: 2, Eps1: 0.1, SpillBatches: true})
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

// TestSealInstallRoundtrip drives the write path at the store level: Seal
// publishes the step with no I/O, holding its batch at the buffer's capacity,
// a Commit while it is sealed makes none of it durable, InstallOne writes it
// once — its level-0 partition and nothing else — and a Commit after that
// leaves a manifest that reopens to the partition.
func TestSealInstallRoundtrip(t *testing.T) {
	dev := newDev(t)
	cfg := Config{Kappa: 2, Eps1: 0.1}
	s, err := NewStore(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := dev.Stats()
	sb := s.Seal(append(make([]int64, 0, 200), seqBatch(1000, 50)...), 0)
	if io := dev.Stats().Sub(before); io.Total() != 0 || io.Opens != 0 {
		t.Fatalf("seal did I/O: %+v", io)
	}
	if got := sb.MemoryBytes(); got != 200*8 {
		t.Fatalf("sealed batch of 50 in a 200-value buffer holds %d bytes, want %d", got, 200*8)
	}
	if sb.Step != 1 {
		t.Fatalf("sealed step = %d, want 1", sb.Step)
	}
	if got := s.Sealed(); got != sb || sb.Count != 50 {
		t.Fatalf("sealed = %v, want the one sealed batch of 50", got)
	}
	if s.TotalCount() != 50 || s.Steps() != 1 || s.PartitionCount() != 0 {
		t.Fatalf("TotalCount/Steps/PartitionCount = %d/%d/%d, want 50/1/0", s.TotalCount(), s.Steps(), s.PartitionCount())
	}
	if err := s.Commit("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	sealed, err := LoadStore(dev, "MANIFEST.json", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sealed.Steps() != 0 || sealed.TotalCount() != 0 || sealed.Sealed() != nil {
		t.Fatalf("reloaded while sealed: steps=%d total=%d sealed=%v, want nothing durable",
			sealed.Steps(), sealed.TotalCount(), sealed.Sealed())
	}

	before = dev.Stats()
	bd, installed, err := s.InstallOne()
	if err != nil {
		t.Fatal(err)
	}
	if installed != 1 {
		t.Fatalf("installed step = %d, want 1", installed)
	}
	if io := dev.Stats().Sub(before); io != bd.LoadIO || io.SeqWrites == 0 {
		t.Errorf("install did %+v, its load %+v; want the load, a partition write, to be all of it", io, bd.LoadIO)
	}
	if names, err := dev.List(""); err != nil || !slices.Equal(names, []string{"MANIFEST.json", "part-000000.dat"}) {
		t.Errorf("device holds %v (%v), want the manifest and the one partition", names, err)
	}
	if s.Sealed() != nil || s.PartitionCount() != 1 || s.TotalCount() != 50 {
		t.Fatalf("after install: sealed=%v partitions=%d total=%d, want nil/1/50", s.Sealed(), s.PartitionCount(), s.TotalCount())
	}
	if err := s.Commit("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(dev, "MANIFEST.json", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Steps() != 1 || loaded.TotalCount() != 50 || loaded.PartitionCount() != 1 {
		t.Fatalf("reloaded: steps=%d total=%d partitions=%d, want 1/50/1", loaded.Steps(), loaded.TotalCount(), loaded.PartitionCount())
	}
	// Idempotent when drained.
	if _, installed, err := s.InstallOne(); err != nil || installed != 0 {
		t.Fatalf("InstallOne on drained store: step=%d err=%v", installed, err)
	}
}

// TestAddBatchWritesLeftoverFirst: a step whose level-0 write failed stays
// sealed, and the next AddBatch writes it before it seals its own — so that
// call returns with no step sealed behind it and both steps' partitions
// published.
func TestAddBatchWritesLeftoverFirst(t *testing.T) {
	dev := newDev(t)
	s := newStore(t, dev, 3, 0.1)
	var failed atomic.Bool
	dev.SetFault(func(op disk.Op, name string, block int64) error {
		if op == disk.OpSeqWrite && strings.HasPrefix(name, "part-") && failed.CompareAndSwap(false, true) {
			return errors.New("injected write fault")
		}
		return nil
	})
	if _, err := s.AddBatch(seqBatch(0, 40), 1); err == nil {
		t.Fatal("AddBatch(1) with its partition write failing returned nil")
	}
	if _, err := s.AddBatch(seqBatch(100, 40), 2); err != nil {
		t.Fatalf("AddBatch(2): %v", err)
	}
	v := s.Pin()
	defer v.Release()
	if v.InstalledSteps() != 2 || v.Steps() != 2 || s.PartitionCount() != 2 {
		t.Errorf("after AddBatch(2): %d of %d steps installed in %d partitions, want 2 of 2 in 2",
			v.InstalledSteps(), v.Steps(), s.PartitionCount())
	}
	if sb := v.Sealed(); sb != nil {
		t.Errorf("step %d still sealed", sb.Step)
	}
}

// TestVersionEntriesChronological pins the one partition order as an
// invariant of publish: whatever the levels hold — fresh level-0 installs,
// cascading merges, a sealed step waiting — every published version
// lists its partitions oldest first, tiling (0, InstalledSteps] without a
// gap, with levels that never increase along the list. A reader pins while
// installs append and a merger splices beside them, so versions published
// by either, in any interleaving, are checked too.
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
		// The sealed step continues the partitions.
		if sb := v.Sealed(); sb != nil && sb.Step != next {
			t.Errorf("version %d sealed step %d, want %d", v.Seq(), sb.Step, next)
		}
	}
	for _, kappa := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("kappa=%d", kappa), func(t *testing.T) {
			s, err := NewStore(newDev(t), Config{Kappa: kappa, Eps1: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(31*kappa + 1)))
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // a reader
				defer wg.Done()
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
			go func() { // the merger, splicing beside the installs
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, _, err := s.Merge(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			levels := 0
			for s.Steps() < 60 {
				// Seal a step and install it, or leave it sealed a while:
				// versions are published with and without a sealed step
				// behind them.
				if s.Sealed() == nil {
					s.Seal(seqBatch(rng.Int63n(1<<20), 1+rng.Intn(40)), 0)
				}
				if rng.Intn(3) > 0 {
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
			wg.Wait()
			// What the merger left, merged out in step with the installs.
			for {
				merged, _, err := s.Merge()
				if err != nil {
					t.Fatal(err)
				}
				if !merged {
					break
				}
				v := s.Pin()
				check(t, v)
				v.Release()
			}
			levels = max(levels, s.Levels())
			if levels < 2 {
				t.Fatalf("only %d level(s) ever held partitions: no merge cascaded, test is vacuous", levels)
			}
		})
	}
}

// TestInstallSortsInPlace: the sealed step is the buffer Seal was handed,
// not a copy, and Seal leaves it as it was; Sort sorts a step in place with
// the store's kept scratch. After the first step a sort, a seal and an
// install cost no allocation of the step's size while no GC runs.
func TestInstallSortsInPlace(t *testing.T) {
	dev, err := disk.NewManager(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(dev, Config{Kappa: 2, Eps1: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32768
	rng := rand.New(rand.NewSource(5))
	batch, want := make([]int64, n), make([]int64, n)
	install := func() {
		for i := range batch {
			batch[i] = rng.Int63n(1 << 30)
		}
		s.Sort(batch)
		copy(want, batch)
		sb := s.Seal(batch, 0)
		if !slices.IsSorted(batch) || !slices.Equal(batch, want) || &sb.Data()[0] != &batch[0] || len(sb.Data()) != n {
			t.Fatalf("step %d: the sealed step is not the sorted buffer it was handed", sb.Step)
		}
		if _, step, err := s.InstallOne(); err != nil || step != sb.Step {
			t.Fatalf("install of step %d: step %d, %v", sb.Step, step, err)
		}
	}
	install()
	// The store holds its scratch weakly; with the GC off it survives.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	const steps = 4
	runtime.ReadMemStats(&before)
	for range steps {
		install()
	}
	runtime.ReadMemStats(&after)
	perStep := (after.TotalAlloc - before.TotalAlloc) / steps
	t.Logf("%d bytes per sort, seal and install", perStep)
	if perStep >= n*8/4 {
		t.Fatalf("a sort, seal and install allocated %d bytes after the first, want well under the step's %d", perStep, n*8)
	}
}
