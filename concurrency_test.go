package hsq

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/oracle"
)

// TestConcurrentQueriesDuringBackgroundMerge is the snapshot-isolation
// acceptance test: a producer Observes and EndSteps while readers run
// accurate Quantile and Rank queries the whole time — including while the
// level-0 writes and κ-way merges each EndStep runs are in flight — and
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
			if ms := eng.Status(); ms.Running {
				mergesSeen.Store(true)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Producer: ascending values, one EndStep per batch, each running its
	// step's write and merges beside the readers.
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
	ms := eng.Status()
	if ms.Installs != steps {
		t.Errorf("Installs = %d, want %d", ms.Installs, steps)
	}
	if ms.Merges == 0 {
		t.Errorf("no merges ran (κ=2 over %d steps must cascade)", steps)
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

// TestObserveNotBlockedByMerge proves the lock split directly: while the
// merge an EndStep runs is wedged (blocking fault hook), Observe and
// Quantile both complete — only that EndStep waits.
func TestObserveNotBlockedByMerge(t *testing.T) {
	eng := OneStream(t, Options{Epsilon: 0.05, Kappa: 2, Backend: "mem", BlockSize: 512})

	gate, parked := make(chan struct{}), make(chan struct{})
	var gateOff atomic.Bool
	var once sync.Once
	eng.db.dev.SetFault(func(op disk.Op, name string, block int64) error {
		// Wedge the merge's reads of its inputs; level-0 writes and query
		// reads pass through untouched.
		if op == disk.OpSeqRead && partFile(name) && !gateOff.Load() {
			once.Do(func() { close(parked) })
			<-gate
		}
		return nil
	})

	for s := int64(0); s < 2; s++ {
		for i := int64(1); i <= 500; i++ {
			eng.Observe(s*500 + i)
		}
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1001); i <= 1500; i++ {
		eng.Observe(i)
	}
	endStep := make(chan error, 1)
	go func() {
		_, err := eng.EndStep() // the third puts level 0 past κ: its merge wedges
		endStep <- err
	}()
	<-parked

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1501); i <= 2000; i++ {
			eng.Observe(i)
		}
		if _, _, err := eng.Quantile(0.5); err != nil {
			t.Errorf("query during wedged merge: %v", err)
		}
	}()
	select {
	case <-done:
	case err := <-endStep:
		t.Fatalf("EndStep returned (%v) while its merge was wedged", err)
	case <-time.After(10 * time.Second):
		t.Fatal("Observe/Quantile blocked behind the merge a concurrent EndStep runs")
	}
	gateOff.Store(true)
	close(gate)
	if err := <-endStep; err != nil {
		t.Fatalf("EndStep after the merge resumed: %v", err)
	}
	eng.db.dev.SetFault(nil)
	if ms := eng.Status(); ms.Merges != 1 || ms.PendingSteps != 0 {
		t.Errorf("after the EndStep: %d merges, %d steps pending; want 1, 0", ms.Merges, ms.PendingSteps)
	}
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

// TestLiveStepOneGuard: the engine lock is the only guard of the live step's
// batch, whose unsorted tail a query sorts under it, and of the sealed
// step's batch, which the cut sorts under it, so every engine path that
// touches either — observes, counts, memory, both query kinds (the live
// summary gathered after the tail's sort, the sealed step's from its sorted
// batch while its level-0 write runs), the cut's sort, and settle's
// recycling of the installed batch — runs at once here on one stream whose
// EndSteps run merges (κ=2) beside all of them. Under -race a path that
// reads either batch outside the lock fails it; the counts must never go
// backwards and must add up once everything has stopped.
func TestLiveStepOneGuard(t *testing.T) {
	const rounds, batch = 200, 64
	st := OneStream(t, Options{Epsilon: 0.05, Kappa: 2, Backend: "mem", BlockSize: 512})
	var fed atomic.Int64
	feed := func() error {
		vs := make([]int64, batch)
		for i := range vs {
			vs[i] = fed.Add(1)
		}
		return st.ObserveSliceCtx(context.Background(), vs)
	}
	for range 3 {
		if err := feed(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := feed(); err != nil {
		t.Fatal(err)
	}
	if ms := st.Status(); ms.Merges != 1 {
		t.Fatalf("setup: %d merges, want 1 (the third step's partition put level 0 past κ=2)", ms.Merges)
	}

	var lastN int64 // only the counts goroutine reads and writes it
	var feeds int   // only the feeder reads and writes it
	ops := map[string]func() error{
		"accurate Query": func() error {
			_, err := st.Query(context.Background(), Request{Phis: []float64{0.1, 0.5, 0.99}})
			return err
		},
		"quick Query": func() error {
			_, err := st.Query(context.Background(), Request{Phis: []float64{0.5}, Quick: true})
			return err
		},
		"MemoryUsage": func() error {
			if mu := st.MemoryUsage(); mu.Total() <= 0 {
				return fmt.Errorf("MemoryUsage %+v, want a positive total", mu)
			}
			return nil
		},
		"StreamCount, TotalCount and Status": func() error {
			m, n := st.StreamCount(), st.TotalCount()
			if m < 0 || m > n || n < lastN {
				return fmt.Errorf("StreamCount %d, TotalCount %d after a TotalCount of %d", m, n, lastN)
			}
			ss := st.Status()
			if !ss.Hydrated || ss.StreamCount+ss.HistCount < n {
				return fmt.Errorf("Status %+v after a TotalCount of %d", ss, n)
			}
			lastN = ss.StreamCount + ss.HistCount
			return nil
		},
		// The feeder stops appending after its own rounds: one that kept
		// feeding while slower paths caught up would grow the step, and
		// every path's cost with it, without bound (under GOMAXPROCS=1 and
		// -race the run never ended).
		"ObserveSlice": func() error {
			if feeds++; feeds > rounds {
				runtime.Gosched()
				return nil
			}
			return feed()
		},
		"EndStep": func() error {
			_, err := st.EndStep()
			return err
		},
		"SyncMaintenance": st.SyncMaintenance,
	}
	// Every path runs at least rounds times and keeps running until the
	// last one has, so each overlaps all the others.
	var wg sync.WaitGroup
	var short atomic.Int32 // goroutines still short of rounds
	short.Store(int32(len(ops)))
	start := make(chan struct{})
	for name, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counted := false
			defer func() {
				if !counted {
					short.Add(-1)
				}
			}()
			<-start
			for i := 1; !counted || short.Load() > 0; i++ {
				if err := op(); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if i == rounds {
					counted = true
					short.Add(-1)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if err := st.SyncMaintenance(); err != nil {
		t.Fatal(err)
	}
	if n, want := st.TotalCount(), fed.Load(); n != want {
		t.Errorf("TotalCount %d after the run, want the %d values fed", n, want)
	}
}
