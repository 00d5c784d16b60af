package hsq

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/workload"
)

// faultEngine builds an engine whose device we can inject faults into.
func faultEngine(t *testing.T) (*Engine, *disk.Manager) {
	t.Helper()
	eng, err := New(Config{Epsilon: 0.05, Kappa: 2, Dir: t.TempDir(), BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return eng, eng.dev
}

var errInjected = errors.New("injected disk fault")

// TestFaultDuringLoad: a write failure while loading a batch must surface
// as an error from EndStep, not a panic, and the engine must keep serving
// queries over the data it already holds.
func TestFaultDuringLoad(t *testing.T) {
	eng, dev := faultEngine(t)
	gen := workload.NewUniform(1)

	// Load two good steps.
	for i := 0; i < 2; i++ {
		eng.ObserveSlice(workload.Fill(gen, 500))
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}

	// Inject write failures.
	dev.SetFault(func(op disk.Op, name string, block int64) error {
		if op == disk.OpSeqWrite {
			return errInjected
		}
		return nil
	})
	eng.ObserveSlice(workload.Fill(gen, 500))
	if _, err := eng.EndStep(); !errors.Is(err, errInjected) {
		t.Fatalf("EndStep under write fault: %v", err)
	}
	dev.SetFault(nil)

	// History must still be queryable (the failed batch never installed).
	if eng.HistCount() != 1000 {
		t.Errorf("HistCount = %d after failed load", eng.HistCount())
	}
	if _, _, err := eng.Quantile(0.5); err != nil {
		t.Errorf("query after failed load: %v", err)
	}
}

// TestFaultDuringQuery: a random-read failure mid-query must surface as an
// error and leave the engine consistent.
func TestFaultDuringQuery(t *testing.T) {
	eng, dev := faultEngine(t)
	gen := workload.NewUniform(2)
	for i := 0; i < 4; i++ {
		eng.ObserveSlice(workload.Fill(gen, 2000))
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	eng.ObserveSlice(workload.Fill(gen, 1000))

	dev.SetFault(func(op disk.Op, name string, block int64) error {
		if op == disk.OpRandRead {
			return errInjected
		}
		return nil
	})
	_, _, err := eng.Quantile(0.5)
	if err == nil {
		t.Skip("query answered without disk reads at this scale")
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("unexpected error: %v", err)
	}
	dev.SetFault(nil)
	if _, _, err := eng.Quantile(0.5); err != nil {
		t.Errorf("query after fault cleared: %v", err)
	}
	// Quick queries never touch disk: immune even under injected faults.
	dev.SetFault(func(op disk.Op, name string, block int64) error { return errInjected })
	if _, err := QuantileQuick(eng, 0.5); err != nil {
		t.Errorf("quick query under total disk fault: %v", err)
	}
}

// TestFaultDuringCommit: a failed manifest commit (meta write or sync) must
// surface from EndStep — meta writes route through the fault hook like any
// other I/O — while the engine keeps serving queries over its in-memory
// state, and the next clean EndStep re-commits everything durably.
func TestFaultDuringCommit(t *testing.T) {
	eng, dev := faultEngine(t)
	gen := workload.NewUniform(7)
	eng.ObserveSlice(workload.Fill(gen, 500))
	if _, err := eng.EndStep(); err != nil {
		t.Fatal(err)
	}

	for _, op := range []disk.Op{disk.OpMetaWrite, disk.OpSync} {
		dev.SetFault(func(o disk.Op, name string, block int64) error {
			if o == op {
				return errInjected
			}
			return nil
		})
		eng.ObserveSlice(workload.Fill(gen, 500))
		if _, err := eng.EndStep(); !errors.Is(err, errInjected) {
			t.Fatalf("EndStep under %v fault: %v", op, err)
		}
		dev.SetFault(nil)
		// The batch was installed in memory; the failed commit only delayed
		// durability. Queries see it, and a Checkpoint retry commits it.
		if _, _, err := eng.Quantile(0.5); err != nil {
			t.Errorf("query after failed %v commit: %v", op, err)
		}
		if err := eng.Checkpoint(); err != nil {
			t.Errorf("Checkpoint retry after %v fault: %v", op, err)
		}
	}

	// The re-committed state must resume cleanly.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenEngine(Config{Epsilon: 0.05, Kappa: 2, Dir: eng.cfg.Dir, BlockSize: 1024})
	if err != nil {
		t.Fatalf("reopen after commit faults: %v", err)
	}
	defer re.Close() //nolint:errcheck
	if got := re.HistCount(); got != 1500 {
		t.Errorf("resumed HistCount = %d, want 1500", got)
	}
}

// TestFaultDuringDropStream: when the sync after a drop's directory commit
// fails, the DB must rewrite the directory with the stream restored —
// otherwise a later unrelated device sync makes the stream-less directory
// durable and the next Open destroys a live stream's data.
func TestFaultDuringDropStream(t *testing.T) {
	cb := disk.NewCrashBackend()
	db, err := Open(Options{Epsilon: 0.05, Kappa: 2, Device: cb, BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewUniform(11)
	fill := func(name string) *Stream {
		t.Helper()
		s, err := db.Stream(name)
		if err != nil {
			t.Fatal(err)
		}
		s.ObserveSlice(workload.Fill(gen, 500))
		if _, err := s.EndStep(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	keep := fill("keepme")
	fill("dropme")

	db.dev.SetFault(func(op disk.Op, name string, block int64) error {
		if op == disk.OpSync {
			return errInjected
		}
		return nil
	})
	if err := db.DropStream("dropme"); !errors.Is(err, errInjected) {
		t.Fatalf("DropStream under sync fault: %v", err)
	}
	db.dev.SetFault(nil)
	if _, ok := db.Lookup("dropme"); !ok {
		t.Fatal("stream vanished from the DB after a failed drop")
	}

	// The hazard: an unrelated step's device-wide sync persists whatever
	// directory is on the device. Then a crash discarding unsynced writes.
	keep.ObserveSlice(workload.Fill(gen, 100))
	if _, err := keep.EndStep(); err != nil {
		t.Fatal(err)
	}
	cb.Restart(false)
	db2, err := Open(Options{Epsilon: 0.05, Kappa: 2, Device: cb, BlockSize: 1024})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	s2, ok := db2.Lookup("dropme")
	if !ok {
		t.Fatal("failed drop became durable: stream (and its data) destroyed on reopen")
	}
	if got := s2.HistCount(); got != 500 {
		t.Errorf("surviving stream has %d elements, want 500", got)
	}
}

// TestFaultDuringMerge: failures inside a level merge must abort the merge
// without corrupting the store.
func TestFaultDuringMerge(t *testing.T) {
	eng, dev := faultEngine(t)
	gen := workload.NewUniform(3)
	// κ=2: the 3rd step triggers a merge. Fail only reads of partition
	// files (merge input) — the batch's own load/sort writes succeed.
	for i := 0; i < 2; i++ {
		eng.ObserveSlice(workload.Fill(gen, 500))
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	dev.SetFault(func(op disk.Op, name string, block int64) error {
		if op == disk.OpSeqRead && strings.HasPrefix(name, "part-") {
			return errInjected
		}
		return nil
	})
	eng.ObserveSlice(workload.Fill(gen, 500))
	if _, err := eng.EndStep(); !errors.Is(err, errInjected) {
		t.Fatalf("EndStep under merge fault: %v", err)
	}
	dev.SetFault(nil)
	// The engine survives; queries still work over installed data.
	if _, _, err := eng.Quantile(0.5); err != nil {
		t.Errorf("query after failed merge: %v", err)
	}
}
