package hsq

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/workload"
)

// envMaxPending lets CI force a backpressure depth on every
// maintenance-mode test (HSQ_MAX_PENDING_STEPS=1 runs the whole suite under
// constant backpressure; a large value exercises deep pending queues).
func envMaxPending(def int) int {
	if v := os.Getenv("HSQ_MAX_PENDING_STEPS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func maintConfig(mode string, maxPending int) Options {
	return Options{
		Epsilon: 0.05, Kappa: 3, Backend: "mem", BlockSize: 1024,
		Maintenance: mode, MaxPendingSteps: maxPending,
	}
}

// feedSteps drives steps batches of size batch through the engine,
// returning every observed element.
func feedSteps(t *testing.T, eng *Stream, gen workload.Generator, steps, batch int) []int64 {
	t.Helper()
	var all []int64
	for s := 0; s < steps; s++ {
		vals := workload.Fill(gen, batch)
		all = append(all, vals...)
		eng.ObserveSlice(vals)
		if _, err := eng.EndStep(); err != nil {
			t.Fatalf("EndStep %d: %v", s+1, err)
		}
	}
	return all
}

// oracleQuerier is the slice of the Engine/Stream surface
// checkAgainstOracle needs, so the helper works on both.
type oracleQuerier interface {
	Epsilon() float64
	Quantile(phi float64) (int64, QueryStats, error)
}

func checkAgainstOracle(t *testing.T, eng oracleQuerier, all []int64, label string) {
	t.Helper()
	or := oracle.New(len(all))
	or.Add(all...)
	n := int64(len(all))
	bound := int64(eng.Epsilon()*float64(n)) + 1
	for _, phi := range []float64{0.1, 0.5, 0.9, 0.99} {
		v, _, err := eng.Quantile(phi)
		if err != nil {
			t.Fatalf("%s: quantile(%g): %v", label, phi, err)
		}
		target := int64(phi * float64(n))
		if target < 1 {
			target = 1
		}
		if spanErr := or.SpanError(target, v); spanErr > bound {
			t.Errorf("%s: quantile(%g)=%d rank error %d > ε·N=%d", label, phi, v, spanErr, bound)
		}
	}
}

// TestMaintenanceModesEquivalent feeds the same workload through all three
// maintenance modes and requires identical step counts, identical histories
// and oracle-accurate quantiles — and, once drained, the same warehouse
// layout, the same install counters and the same sequential writes: who
// drains the sealed queue must change nothing else.
func TestMaintenanceModesEquivalent(t *testing.T) {
	type outcome struct {
		layout    []LevelInfo
		seqWrites uint64
	}
	var first *outcome
	for _, mode := range []string{MaintenanceSync, MaintenanceAsync, MaintenanceManual} {
		t.Run(mode, func(t *testing.T) {
			eng := OneStream(t, maintConfig(mode, envMaxPending(3)))
			all := feedSteps(t, eng, workload.NewUniform(42), 12, 700)
			// Quantiles must be accurate BEFORE draining: sealed steps are
			// covered by their frozen summaries.
			checkAgainstOracle(t, eng, all, "pre-drain")
			if err := eng.SyncMaintenance(); err != nil {
				t.Fatalf("SyncMaintenance: %v", err)
			}
			if got := eng.Steps(); got != 12 {
				t.Errorf("Steps = %d, want 12", got)
			}
			if got := eng.HistCount(); got != int64(len(all)) {
				t.Errorf("HistCount = %d, want %d", got, len(all))
			}
			ms := eng.MaintenanceStats()
			if ms.PendingSteps != 0 || ms.PendingElements != 0 {
				t.Errorf("after SyncMaintenance: pending = %d steps / %d elements", ms.PendingSteps, ms.PendingElements)
			}
			if ms.Installs != 12 {
				t.Errorf("Installs = %d, want 12", ms.Installs)
			}
			if ms.MaintIO.Total() == 0 {
				t.Error("zero maintenance I/O after 12 installs")
			}
			checkAgainstOracle(t, eng, all, "post-drain")
			got := &outcome{eng.Describe(), eng.DiskStats().SeqWrites}
			if first == nil {
				first = got
			} else if !slices.Equal(got.layout, first.layout) || got.seqWrites != first.seqWrites {
				t.Errorf("layout %+v with %d sequential writes, sync mode left %+v with %d",
					got.layout, got.seqWrites, first.layout, first.seqWrites)
			}
		})
	}
}

// TestSyncInstallBlocksNobody parks a synchronous EndStep inside its install
// (a gate on the level-0 partition write) and requires that, while it is in
// flight, ObserveSlice returns and a query answers within ε over everything
// observed — the sealed step through its frozen summary, the new elements
// through the live sketch. Only the EndStep caller waits for the install.
func TestSyncInstallBlocksNobody(t *testing.T) {
	eng := OneStream(t, maintConfig(MaintenanceSync, 0))
	gen := workload.NewUniform(17)
	all := feedSteps(t, eng, gen, 2, 600)

	parked, gate := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, which waits for the install
	var once sync.Once
	eng.db.dev.SetFault(func(op disk.Op, name string, block int64) error {
		if op == disk.OpSeqWrite && partFile(name) {
			once.Do(func() { close(parked) })
			<-gate
		}
		return nil
	})
	vals := workload.Fill(gen, 600)
	all = append(all, vals...)
	eng.ObserveSlice(vals)
	endStep := make(chan error, 1)
	go func() {
		_, err := eng.EndStep()
		endStep <- err
	}()
	<-parked

	vals = workload.Fill(gen, 300)
	all = append(all, vals...)
	// The two calls that would park behind an engine lock held across the
	// install, probed off the test goroutine so a regression is a failure
	// rather than a hang.
	through := make(chan error, 1)
	go func() {
		eng.ObserveSlice(vals)
		_, _, err := eng.Quantile(0.5)
		through <- err
	}()
	select {
	case err := <-through:
		if err != nil {
			t.Fatalf("query with the install in flight: %v", err)
		}
	case err := <-endStep:
		t.Fatalf("EndStep returned (%v) while its install was parked", err)
	case <-time.After(10 * time.Second):
		t.Fatal("ObserveSlice / Query blocked behind an in-flight synchronous install")
	}
	if got := eng.TotalCount(); got != int64(len(all)) {
		t.Errorf("TotalCount = %d with the install in flight, want %d", got, len(all))
	}
	if got := eng.MaintenanceStats(); got.PendingSteps != 1 || !got.Running {
		t.Errorf("with the install in flight: %d sealed steps, running = %v; want 1, true", got.PendingSteps, got.Running)
	}
	checkAgainstOracle(t, eng, all, "install in flight")
	release()
	if err := <-endStep; err != nil {
		t.Fatalf("EndStep: %v", err)
	}
	eng.db.dev.SetFault(nil)
	if got := eng.MaintenanceStats().PendingSteps; got != 0 {
		t.Errorf("%d steps still sealed after EndStep returned", got)
	}
	checkAgainstOracle(t, eng, all, "installed")
}

// TestManualMaintenanceDefersInstalls pins the deferred-phase contract:
// EndStep in manual mode seals without installing (no new partitions, the
// backlog grows, queries still cover everything), and SyncMaintenance folds
// the backlog into partitions.
func TestManualMaintenanceDefersInstalls(t *testing.T) {
	eng := OneStream(t, maintConfig(MaintenanceManual, 0))
	all := feedSteps(t, eng, workload.NewNormal(7), 5, 400)
	if got := eng.PartitionCount(); got != 0 {
		t.Errorf("PartitionCount = %d before maintenance, want 0", got)
	}
	ms := eng.MaintenanceStats()
	if ms.PendingSteps != 5 || ms.PendingElements != 2000 {
		t.Errorf("pending = %d steps / %d elements, want 5 / 2000", ms.PendingSteps, ms.PendingElements)
	}
	if got := eng.HistCount(); got != 2000 {
		t.Errorf("HistCount = %d, want 2000 (sealed steps count as history)", got)
	}
	if got := eng.Steps(); got != 5 {
		t.Errorf("Steps = %d, want 5", got)
	}
	checkAgainstOracle(t, eng, all, "sealed-only")

	if err := eng.SyncMaintenance(); err != nil {
		t.Fatal(err)
	}
	if got := eng.PartitionCount(); got == 0 {
		t.Error("PartitionCount still 0 after SyncMaintenance")
	}
	if got := eng.MaintenanceStats().PendingSteps; got != 0 {
		t.Errorf("pending = %d after SyncMaintenance", got)
	}
	checkAgainstOracle(t, eng, all, "installed")
}

// TestAsyncBackpressureBlocks wedges the background install with a blocking
// fault hook and proves that (a) EndStep blocks once MaxPendingSteps seals
// are pending, (b) EndStepCtx aborts the wait on cancellation, and (c) the
// wait resolves as soon as maintenance progresses.
func TestAsyncBackpressureBlocks(t *testing.T) {
	eng := OneStream(t, Options{
		Epsilon: 0.05, Kappa: 3, Backend: "mem", BlockSize: 1024,
		Maintenance: MaintenanceAsync, MaxPendingSteps: 1, MaintenanceWorkers: 1,
	})

	gate := make(chan struct{})
	var released atomic.Bool
	eng.db.dev.SetFault(func(op disk.Op, name string, block int64) error {
		// Block the first partition write (the background install) until the
		// gate opens. Seals write batch-raw files, which pass through.
		if op == disk.OpSeqWrite && partFile(name) && !released.Load() {
			<-gate
		}
		return nil
	})

	gen := workload.NewUniform(3)
	eng.ObserveSlice(workload.Fill(gen, 300))
	if _, err := eng.EndStep(); err != nil {
		t.Fatal(err) // seals; install blocks in the background
	}

	// Second EndStep must hit backpressure (1 pending >= MaxPendingSteps=1).
	eng.ObserveSlice(workload.Fill(gen, 300))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := eng.EndStepCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EndStepCtx under backpressure: err = %v, want deadline exceeded", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := eng.EndStep()
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("EndStep returned while backpressured: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	released.Store(true)
	close(gate) // let the install finish
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("EndStep after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EndStep still blocked after maintenance progressed")
	}
	eng.db.dev.SetFault(nil)
	if err := eng.SyncMaintenance(); err != nil {
		t.Fatal(err)
	}
	ms := eng.MaintenanceStats()
	if ms.BackpressureWaits == 0 {
		t.Error("BackpressureWaits = 0, want > 0")
	}
	if ms.Installs != 2 {
		t.Errorf("Installs = %d, want 2", ms.Installs)
	}
}

// TestMaintenanceStatsAndWindows covers the windowed-query composition with
// a backlog: sealed steps are the newest windows; partition-aligned windows
// shift by the backlog size.
func TestMaintenanceWindowsWithBacklog(t *testing.T) {
	eng := OneStream(t, maintConfig(MaintenanceManual, 0))
	gen := workload.NewUniform(5)
	// Two installed steps...
	feedSteps(t, eng, gen, 2, 300)
	if err := eng.SyncMaintenance(); err != nil {
		t.Fatal(err)
	}
	installedWins := eng.AvailableWindows()
	// ...then two sealed-but-uninstalled steps.
	feedSteps(t, eng, gen, 2, 300)
	wins := eng.AvailableWindows()
	want := map[int]bool{1: true, 2: true}
	for _, w := range installedWins {
		want[w+2] = true
	}
	for _, w := range wins {
		if !want[w] {
			t.Errorf("AvailableWindows = %v: window %d unexpected (installed wins %v + 2 sealed)", wins, w, installedWins)
		}
	}
	for _, w := range wins {
		v, _, err := Query1(eng, Request{Phis: []float64{0.5}, Window: w})
		if err != nil {
			t.Fatalf("window %d median: %v", w, err)
		}
		if v == 0 {
			t.Errorf("window %d median = 0", w)
		}
		if _, _, err := Query1(eng, Request{Phis: []float64{0.5}, Window: w, Quick: true}); err != nil {
			t.Fatalf("window %d quick median: %v", w, err)
		}
	}
}

// TestDBWaitIdleAndSchedulerStats drives several async streams of one DB
// and checks the DB-wide scheduler accounting plus the WaitIdle barrier.
func TestDBWaitIdleAndSchedulerStats(t *testing.T) {
	db, err := Open(Options{
		Epsilon: 0.05, Kappa: 3, Backend: "mem", BlockSize: 1024,
		Maintenance: MaintenanceAsync, MaxPendingSteps: envMaxPending(4), MaintenanceWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	gen := workload.NewUniform(9)
	data := make(map[string][]int64)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("s%d", i)
		st, err := db.Stream(name)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			vals := workload.Fill(gen, 500)
			data[name] = append(data[name], vals...)
			st.ObserveSlice(vals)
			if _, err := st.EndStep(); err != nil {
				t.Fatalf("stream %s EndStep: %v", name, err)
			}
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	ss := db.SchedulerStats()
	if ss.Workers != 2 {
		t.Errorf("Workers = %d, want 2", ss.Workers)
	}
	if ss.PendingSteps != 0 || ss.MergeDebt != 0 {
		t.Errorf("after WaitIdle: pending %d steps / debt %d", ss.PendingSteps, ss.MergeDebt)
	}
	if ss.Installs != 12 {
		t.Errorf("Installs = %d, want 12", ss.Installs)
	}
	if ss.MaintIO.Total() == 0 {
		t.Error("device-wide MaintIO is zero after 12 background installs")
	}
	for name, all := range data {
		st, ok := db.Lookup(name)
		if !ok {
			t.Fatalf("stream %s missing", name)
		}
		if got := st.HistCount(); got != int64(len(all)) {
			t.Errorf("stream %s: HistCount = %d, want %d", name, got, len(all))
		}
		checkAgainstOracle(t, st, all, name)
	}
}

// TestAsyncRestartRecoversSealedSteps crashes (well, closes the backend
// abruptly by just reopening over the same memory device is impossible —
// use the file backend) with a sealed backlog and requires the reopened
// engine to re-install every sealed step from its spill.
func TestManualRestartRecoversSealedSteps(t *testing.T) {
	dir := t.TempDir()
	cfg := Options{Epsilon: 0.05, Kappa: 3, Dir: dir, BlockSize: 1024, Maintenance: MaintenanceManual}
	eng := OneStream(t, cfg)
	all := feedSteps(t, eng, workload.NewUniform(11), 4, 350)
	// Simulate an unclean shutdown: no Close, no SyncMaintenance — the
	// sealed steps exist only as spills + manifest pending entries.
	if got := eng.PartitionCount(); got != 0 {
		t.Fatalf("PartitionCount = %d, want 0 (nothing installed)", got)
	}

	re := OneStream(t, cfg) // a second DB over the same directory: the reopen
	if got := re.Steps(); got != 4 {
		t.Errorf("recovered Steps = %d, want 4", got)
	}
	if got := re.HistCount(); got != int64(len(all)) {
		t.Errorf("recovered HistCount = %d, want %d", got, len(all))
	}
	if got := re.PartitionCount(); got == 0 {
		t.Error("recovered engine installed no partitions")
	}
	if got := re.MaintenanceStats().PendingSteps; got != 0 {
		t.Errorf("recovered pending = %d, want 0 (reopen drains)", got)
	}
	checkAgainstOracle(t, re, all, "recovered")
}

// TestValidationSingleSource asserts the satellite contract: the public
// config layer and the partition layer reject the same Epsilon/Kappa
// inputs, because both route through partition's validators.
func TestValidationSingleSource(t *testing.T) {
	dev, err := disk.NewManagerOn(disk.NewMemBackend(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{-0.5, 0, 1, 1.7} {
		_, engErr := Open(Options{Epsilon: eps, Backend: "mem"})
		_, storeErr := partition.NewStore(dev, partition.Config{Kappa: 10, Eps1: eps})
		if (engErr == nil) != (storeErr == nil) {
			t.Errorf("eps=%g: engine err=%v, store err=%v — layers disagree", eps, engErr, storeErr)
		}
		if engErr == nil {
			t.Errorf("eps=%g: accepted", eps)
		}
	}
	for _, kappa := range []int{-1, 1} {
		_, engErr := Open(Options{Epsilon: 0.1, Kappa: kappa, Backend: "mem"})
		_, storeErr := partition.NewStore(dev, partition.Config{Kappa: kappa, Eps1: 0.05})
		if (engErr == nil) != (storeErr == nil) {
			t.Errorf("kappa=%d: engine err=%v, store err=%v — layers disagree", kappa, engErr, storeErr)
		}
		if engErr == nil {
			t.Errorf("kappa=%d: accepted", kappa)
		}
	}
	// Kappa 0 means "default" at the engine layer only.
	if _, err := Open(Options{Epsilon: 0.1, Kappa: 0, Backend: "mem"}); err != nil {
		t.Errorf("kappa=0 (default): %v", err)
	}
	if _, err := partition.NewStore(dev, partition.Config{Kappa: 0, Eps1: 0.05}); err == nil {
		t.Error("store kappa=0: accepted")
	}
	// Unknown maintenance mode and negative backpressure are rejected.
	if _, err := Open(Options{Epsilon: 0.1, Backend: "mem", Maintenance: "turbo"}); err == nil {
		t.Error("Maintenance=turbo: accepted")
	}
	if _, err := Open(Options{Epsilon: 0.1, Backend: "mem", MaxPendingSteps: -1}); err == nil {
		t.Error("MaxPendingSteps=-1: accepted")
	}
}

// maintBenchConfig builds the sync-vs-async comparison engine: κ=2 so
// merges cascade constantly, simulated SSD latency so the inline
// sort+merge cost is the device's rather than the allocator's.
func maintBenchConfig(mode string) Options {
	cfg := Options{
		Epsilon: 0.01, Kappa: 2, Backend: "mem", BlockSize: 4096,
		SimulateDisk: "ssd", Maintenance: mode,
	}
	if mode == "async" {
		cfg.MaxPendingSteps = 8
		cfg.MaintenanceWorkers = 2
	}
	return cfg
}

func reportP99(b *testing.B, lat []time.Duration, name string) {
	b.Helper()
	if len(lat) == 0 {
		return
	}
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), name)
}

// BenchmarkIngestStall measures the write path's tail latency across step
// boundaries: a producer observes continuously while the bench loop closes
// steps. No mode holds the engine lock across an install, so Observe p99 is
// the cost of the lock hand-off at the cut in both; what the async scheduler
// buys is the EndStep caller's own latency (p99-endstep-ns, and ns/op) — the
// seal and its commit instead of seal, install, merges and commit — until
// the backlog reaches MaxPendingSteps and backpressure hands the install
// time back.
func BenchmarkIngestStall(b *testing.B) {
	for _, mode := range []string{"sync", "async"} {
		b.Run("maintenance="+mode, func(b *testing.B) {
			eng := OneStream(b, maintBenchConfig(mode))
			gen := workload.NewUniform(21)
			vals := workload.Fill(gen, 1<<16)

			// Low-rate latency probe: one Observe every ~200µs, so the batch
			// volume stays owned by the bench loop while the probe samples
			// how long an Observe waits behind a step boundary.
			var (
				stop atomic.Bool
				wg   sync.WaitGroup
				mu   sync.Mutex
				lat  []time.Duration
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := 0
				for !stop.Load() {
					t0 := time.Now()
					eng.Observe(vals[i&(1<<16-1)])
					d := time.Since(t0)
					mu.Lock()
					lat = append(lat, d)
					mu.Unlock()
					i++
					time.Sleep(200 * time.Microsecond)
				}
			}()

			batch := workload.Fill(gen, 4000)
			endStep := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ObserveSlice(batch)
				t0 := time.Now()
				if _, err := eng.EndStep(); err != nil {
					b.Fatal(err)
				}
				endStep = append(endStep, time.Since(t0))
			}
			b.StopTimer()
			reportP99(b, endStep, "p99-endstep-ns")
			stop.Store(true)
			wg.Wait()
			if err := eng.SyncMaintenance(); err != nil {
				b.Fatal(err)
			}
			mu.Lock()
			reportP99(b, lat, "p99-observe-ns")
			mu.Unlock()
		})
	}
}

// BenchmarkQueryDuringMerge measures accurate-query latency while installs
// and κ-way merges run: a producer keeps closing steps (κ=2, so cascades
// are constant) while the bench loop queries. Reads are snapshot-isolated
// from the install whoever runs it — the EndStep caller or the scheduler —
// so both modes stay flat; they differ in how many sealed steps a query
// covers by frozen summary instead of by partition.
func BenchmarkQueryDuringMerge(b *testing.B) {
	for _, mode := range []string{"sync", "async"} {
		b.Run("maintenance="+mode, func(b *testing.B) {
			eng := OneStream(b, maintBenchConfig(mode))
			gen := workload.NewUniform(22)
			for s := 0; s < 6; s++ {
				eng.ObserveSlice(workload.Fill(gen, 4000))
				if _, err := eng.EndStep(); err != nil {
					b.Fatal(err)
				}
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					eng.ObserveSlice(workload.Fill(gen, 4000))
					if _, err := eng.EndStep(); err != nil {
						return
					}
				}
			}()

			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				phi := 0.1 + 0.8*float64(i%9)/9
				t0 := time.Now()
				if _, _, err := eng.Quantile(phi); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(t0))
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			if err := eng.SyncMaintenance(); err != nil {
				b.Fatal(err)
			}
			reportP99(b, lat, "p99-query-ns")
		})
	}
}
