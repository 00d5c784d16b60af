package hsq

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/oracle"
)

// TestConcurrentQueriesDuringBackgroundMerge is the snapshot-isolation
// acceptance test: with async maintenance, producers Observe and EndStep
// while readers run accurate Quantile and Rank queries the whole time —
// including while background installs and κ-way merges are in flight — and
// every answer must stay within ε of ground truth.
//
// The stream feeds the ascending sequence 1, 2, 3, ..., so ground truth is
// exact at every instant: with N_before elements observed before a query
// and N_after at its end, the true φ-quantile lies in
// [φ·N_before, φ·N_after] and the engine guarantees rank error ≤ ε·N; the
// assertion brackets the answer accordingly. Run under -race this also
// proves the locking discipline: queries never touch engine state that
// installs mutate.
func TestConcurrentQueriesDuringBackgroundMerge(t *testing.T) {
	const (
		eps     = 0.05
		readers = 2
	)
	steps, batch := 30, 1200
	if testing.Short() {
		steps = 12
	}
	eng := OneStream(t, Options{
		Epsilon: eps, Kappa: 2, // κ=2 cascades merges constantly
		Backend: "mem", BlockSize: 512,
		Maintenance: MaintenanceAsync, MaxPendingSteps: envMaxPending(3), MaintenanceWorkers: 2,
	})

	var observed atomic.Int64 // elements fed so far (== largest value fed)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var mergesSeen atomic.Bool

	// Readers: accurate quantiles and rank queries, continuously.
	errs := make(chan error, readers*4)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(phi float64) {
			defer wg.Done()
			for !stop.Load() {
				nBefore := observed.Load()
				if nBefore == 0 {
					continue
				}
				v, _, err := eng.Quantile(phi)
				nAfter := observed.Load()
				if err != nil {
					errs <- err
					return
				}
				slack := int64(eps*float64(nAfter)) + 2
				lo := int64(phi*float64(nBefore)) - slack
				hi := int64(phi*float64(nAfter)) + slack
				if v < lo || v > hi {
					t.Errorf("quantile(%g) = %d outside [%d, %d] (N %d→%d)", phi, v, lo, hi, nBefore, nAfter)
					return
				}
				// Rank is the inverse primitive: rank(v) for v = N/2 must be
				// within ε·N of N/2 (values are exactly 1..N).
				target := nAfter / 2
				if target > 0 {
					r, _, err := eng.Rank(target)
					n2 := observed.Load()
					if err != nil {
						errs <- err
						return
					}
					rslack := int64(eps*float64(n2)) + 2
					if r < target-rslack || r > target+rslack {
						t.Errorf("rank(%d) = %d, want within %d (N=%d)", target, r, rslack, n2)
						return
					}
				}
			}
		}(0.25 + 0.5*float64(i)/float64(readers))
	}

	// Track that queries genuinely overlapped an in-flight install/merge.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if ms := eng.MaintenanceStats(); ms.Running {
				mergesSeen.Store(true)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Producer: ascending values, one EndStep per batch. Observe latency is
	// bounded by the seal, never by a merge.
	next := int64(1)
	for s := 0; s < steps; s++ {
		for i := 0; i < batch; i++ {
			eng.Observe(next)
			observed.Store(next)
			next++
		}
		if _, err := eng.EndStep(); err != nil {
			t.Fatalf("EndStep %d: %v", s+1, err)
		}
	}
	if err := eng.SyncMaintenance(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("reader: %v", err)
	}

	if !mergesSeen.Load() {
		t.Log("warning: sampler never caught an install mid-flight (timing-dependent)")
	}
	ms := eng.MaintenanceStats()
	if ms.Installs != steps {
		t.Errorf("Installs = %d, want %d", ms.Installs, steps)
	}
	if ms.Merges == 0 {
		t.Errorf("no background merges ran (κ=2 over %d steps must cascade)", steps)
	}

	// Final cross-check against the exact oracle.
	total := next - 1
	or := oracle.New(int(total))
	for v := int64(1); v <= total; v++ {
		or.Add(v)
	}
	bound := int64(eps*float64(total)) + 1
	for _, phi := range []float64{0.1, 0.5, 0.99} {
		v, _, err := eng.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		target := int64(phi * float64(total))
		if target < 1 {
			target = 1
		}
		if spanErr := or.SpanError(target, v); spanErr > bound {
			t.Errorf("final quantile(%g)=%d rank error %d > %d", phi, v, spanErr, bound)
		}
	}
}

// TestObserveNotBlockedByMerge proves the lock split directly: while a
// background install is wedged (blocking fault hook), Observe and Quantile
// both complete — only EndStep past the backpressure bound waits.
func TestObserveNotBlockedByMerge(t *testing.T) {
	eng := OneStream(t, Options{
		Epsilon: 0.05, Kappa: 2, Backend: "mem", BlockSize: 512,
		Maintenance: MaintenanceAsync, MaxPendingSteps: 8, MaintenanceWorkers: 1,
	})

	gate := make(chan struct{})
	var gateOff atomic.Bool
	eng.db.dev.SetFault(func(op disk.Op, name string, block int64) error {
		// Wedge partition writes (the background install); seals and query
		// reads pass through untouched.
		if op == disk.OpSeqWrite && partFile(name) && !gateOff.Load() {
			<-gate
		}
		return nil
	})

	for i := int64(1); i <= 500; i++ {
		eng.Observe(i)
	}
	if _, err := eng.EndStep(); err != nil {
		t.Fatal(err) // install now wedged behind the gate
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(501); i <= 1000; i++ {
			eng.Observe(i)
		}
		if _, _, err := eng.Quantile(0.5); err != nil {
			t.Errorf("query during wedged merge: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Observe/Quantile blocked behind a wedged background install")
	}
	gateOff.Store(true)
	close(gate)
	if err := eng.SyncMaintenance(); err != nil {
		t.Fatal(err)
	}
	eng.db.dev.SetFault(nil)
}

// TestDropStreamWaitsForQueries pins the teardown barrier: DropStream (and
// Destroy generally) must wait out queries that pinned a version before
// deleting partition files, so an in-flight disk search never reads a
// removed file.
func TestDropStreamWaitsForQueries(t *testing.T) {
	db, err := Open(Options{Epsilon: 0.05, Kappa: 2, Backend: "mem", BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	st, err := db.Stream("victim")
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		for i := int64(0); i < 3000; i++ {
			st.Observe(i*4 + int64(s))
		}
		if _, err := st.EndStep(); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	qErrs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				_, _, err := st.Quantile(0.5)
				if err != nil {
					// ErrClosed after the drop is the contract; an I/O error
					// ("file removed under me") is the bug.
					if !errors.Is(err, ErrClosed) {
						qErrs <- err
					}
					return
				}
			}
		}()
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let queries get in flight
	if err := db.DropStream("victim"); err != nil {
		t.Fatalf("DropStream: %v", err)
	}
	wg.Wait()
	close(qErrs)
	for err := range qErrs {
		t.Errorf("query raced the drop: %v", err)
	}
}
