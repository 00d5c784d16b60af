package hsq

import (
	"errors"
	"path"
	"slices"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/workload"
)

// faultEngine builds a one-stream DB whose device we can inject faults into.
// The fault hook is device-wide and sees device-wide names
// (streams/<name>/part-…): partFile matches on the base name.
func faultEngine(t *testing.T) (*Stream, *disk.Manager) {
	t.Helper()
	eng := OneStream(t, Options{Epsilon: 0.05, Kappa: 2, Dir: t.TempDir(), BlockSize: 1024})
	return eng, eng.db.dev
}

// partFile reports whether a device-wide name is a partition file.
func partFile(name string) bool { return strings.HasPrefix(path.Base(name), "part-") }

var errInjected = errors.New("injected disk fault")

// TestFaultDuringEndStep pins the write path's one failure rule for a fault
// in each of its three moves — the load (the install's partition write), the
// merge (reads of the cascade's inputs) and the commit (manifest write,
// barrier). Two clean steps, then a step under the fault: its EndStep
// reports the injected error, and the step is sealed all the same — counted
// in HistCount and answered within ε from its batch, which the cut sorted
// under the engine lock. With the fault gone the next EndStep retries it and
// installs it exactly once: counts equal the oracle's and the layout equals
// a fault-free run's. The same holds after a reopen. The subtests keep the
// name of the one maintenance schedule left, "sync", so their ids carry
// over.
func TestFaultDuringEndStep(t *testing.T) {
	only := func(ops ...disk.Op) disk.FaultFunc {
		return func(o disk.Op, name string, block int64) error {
			if slices.Contains(ops, o) {
				return errInjected
			}
			return nil
		}
	}
	faults := []struct {
		name  string
		fault disk.FaultFunc
	}{
		{"load", only(disk.OpSeqWrite)},
		{"merge", mergeFault},
		{"commit-meta", only(disk.OpMetaWrite)},
		{"commit-sync", only(disk.OpSync)},
	}
	for _, f := range faults {
		t.Run("sync/"+f.name, func(t *testing.T) {
			cfg := Options{Epsilon: 0.05, Kappa: 2, Dir: t.TempDir(), BlockSize: 1024}
			eng := OneStream(t, cfg)
			gen := workload.NewUniform(1)
			all := feedSteps(t, eng, gen, 2, 500)

			eng.db.dev.SetFault(f.fault)
			vals := workload.Fill(gen, 500)
			all = append(all, vals...)
			eng.ObserveSlice(vals)
			if _, err := eng.EndStep(); err == nil || !strings.Contains(err.Error(), errInjected.Error()) {
				t.Fatalf("step under %s fault: err = %v, want the injected fault", f.name, err)
			}
			eng.db.dev.SetFault(nil)
			if got := eng.HistCount(); got != 1500 {
				t.Errorf("HistCount = %d after the faulted step, want 1500 (the step is sealed)", got)
			}
			checkAgainstOracle(t, eng, all, "after fault")

			// The retry: the next EndStep writes what the failed one left
			// sealed and runs the merges it left due.
			all = append(all, feedSteps(t, eng, gen, 1, 500)...)
			want := faultFreeLayout(t, cfg, 4, 500)
			check := func(e *Stream, label string) {
				t.Helper()
				if got := e.HistCount(); got != int64(len(all)) {
					t.Errorf("%s: HistCount = %d, want %d (each step installed exactly once)", label, got, len(all))
				}
				if ms := e.Status(); ms.PendingSteps != 0 {
					t.Errorf("%s: %d steps still sealed", label, ms.PendingSteps)
				}
				if got := e.Describe(); !slices.Equal(got, want) {
					t.Errorf("%s: layout %+v, want the fault-free run's %+v", label, got, want)
				}
				checkAgainstOracle(t, e, all, label)
			}
			check(eng, "after retry")
			if got := eng.Status().Installs; got != 4 {
				t.Errorf("Installs = %d, want 4", got)
			}

			if err := eng.DB().Close(); err != nil {
				t.Fatal(err)
			}
			check(OneStream(t, cfg), "reopened")
		})
	}
}

// mergeFault fails only reads of partition files — a merge's inputs. At κ=2
// the 3rd step's install makes a merge due; the step's own write and sort
// succeed.
func mergeFault(o disk.Op, name string, block int64) error {
	if o == disk.OpSeqRead && partFile(name) {
		return errInjected
	}
	return nil
}

// TestMergeFaultAcrossSteps: a merge that keeps failing stops no step. The
// merge due at step 3 fails, and fails again at step 4's EndStep; step 4 is
// cut, written and committed all the same — counted in Steps and HistCount,
// written as its own level-0 partition — and the EndStep reports the
// merge's failure. With
// the fault gone, Close runs the merge, and the reopened stream holds all
// four steps in the fault-free layout.
func TestMergeFaultAcrossSteps(t *testing.T) {
	cfg := Options{Epsilon: 0.05, Kappa: 2, Dir: t.TempDir(), BlockSize: 1024}
	eng := OneStream(t, cfg)
	gen := workload.NewUniform(1)
	all := feedSteps(t, eng, gen, 2, 500)

	eng.db.dev.SetFault(mergeFault)
	for step := 3; step <= 4; step++ {
		vals := workload.Fill(gen, 500)
		all = append(all, vals...)
		eng.ObserveSlice(vals)
		if _, err := eng.EndStep(); !errors.Is(err, errInjected) {
			t.Fatalf("step %d under a merge fault: err = %v, want the injected fault", step, err)
		}
		st := eng.Status()
		if st.Steps != step || st.HistCount != int64(len(all)) || st.StreamCount != 0 {
			t.Errorf("after step %d: Steps %d, HistCount %d, StreamCount %d; want %d, %d, 0",
				step, st.Steps, st.HistCount, st.StreamCount, step, len(all))
		}
		if st.LastError == "" {
			t.Errorf("after step %d: LastError empty under a failing merge", step)
		}
		if st.Installs != step || st.Partitions != step {
			t.Errorf("after step %d: Installs %d, Partitions %d; want %d each (the step written, no merge)",
				step, st.Installs, st.Partitions, step)
		}
	}
	eng.db.dev.SetFault(nil)
	checkAgainstOracle(t, eng, all, "under the failing merge")

	if err := eng.DB().Close(); err != nil {
		t.Fatal(err)
	}
	re := OneStream(t, cfg)
	if got := re.Steps(); got != 4 {
		t.Errorf("reopened: Steps = %d, want 4", got)
	}
	if got := re.HistCount(); got != int64(len(all)) {
		t.Errorf("reopened: HistCount = %d, want %d", got, len(all))
	}
	if got, want := re.Describe(), faultFreeLayout(t, cfg, 4, 500); !slices.Equal(got, want) {
		t.Errorf("reopened: layout %+v, want the fault-free run's %+v", got, want)
	}
	checkAgainstOracle(t, re, all, "reopened")
}

// faultFreeLayout is the Describe() of an engine that ran steps clean steps
// of the given size under cfg's κ.
func faultFreeLayout(t *testing.T, cfg Options, steps, batch int) []LevelInfo {
	t.Helper()
	cfg.Dir = t.TempDir()
	eng := OneStream(t, cfg)
	feedSteps(t, eng, workload.NewUniform(1), steps, batch)
	return eng.Describe()
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
