package hsq

import (
	"context"
	"fmt"
	"maps"
	"math"
	"path"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/workload"
)

func maintConfig() Options {
	return Options{Epsilon: 0.05, Kappa: 3, Backend: "mem", BlockSize: 1024}
}

// failMerges is a fault hook that fails every merge: the reads of its input
// partitions. Level-0 writes and query reads pass through.
func failMerges(op disk.Op, name string, block int64) error {
	if op == disk.OpSeqRead && partFile(name) {
		return errInjected
	}
	return nil
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

// TestEachStepWrittenOnce pins a step's one write: no EndStep creates a raw
// spill (the fault hook fails any that tries), and before any merge is due
// each step's sequential block writes are its level-0 partition's — one per
// block and one for the footer — and nothing else. The subtest's name is
// kept so its id carries over.
func TestEachStepWrittenOnce(t *testing.T) {
	t.Run("sync/sortmem=0", func(t *testing.T) {
		cfg := maintConfig()
		cfg.BlockSize = 512
		eng := OneStream(t, cfg)
		var mu sync.Mutex
		writes := make(map[string]int) // sequential block writes, by file-name prefix
		eng.db.dev.SetFault(func(op disk.Op, name string, block int64) error {
			base := path.Base(name)
			if op == disk.OpOpen && strings.HasPrefix(base, "batch-raw-") {
				return fmt.Errorf("raw spill %s created", name)
			}
			if op == disk.OpSeqWrite {
				kind, _, _ := strings.Cut(base, "-")
				mu.Lock()
				writes[kind]++
				mu.Unlock()
			}
			return nil
		})
		gen := workload.NewUniform(42)
		for step := 1; step <= 12; step++ {
			mu.Lock()
			clear(writes)
			mu.Unlock()
			eng.ObserveSlice(workload.Fill(gen, 700))
			if _, err := eng.EndStep(); err != nil {
				t.Fatalf("EndStep %d: %v", step, err)
			}
			if step > 3 {
				continue // κ=3: merges come due from step 4 on
			}
			ents := engineOf(t, eng).store.Entries()
			r, err := ents[len(ents)-1].Part.OpenRandom()
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]int{"part": int(r.Blocks()) + 1}
			r.Close() //nolint:errcheck // read-only
			mu.Lock()
			got := maps.Clone(writes)
			mu.Unlock()
			if !maps.Equal(got, want) {
				t.Errorf("step %d wrote %v, want its partition's %d blocks and footer alone", step, got, want["part"]-1)
			}
		}
		if got := eng.Status().Installs; got != 12 {
			t.Errorf("Installs = %d, want 12", got)
		}
		names, err := eng.db.dev.List("")
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if base := path.Base(name); strings.HasPrefix(base, "sort-") || strings.HasPrefix(base, "batch-raw-") {
				t.Errorf("%s left on the device", name)
			}
		}
	})
}

// TestSyncInstallBlocksNobody parks a synchronous EndStep inside its install
// (a gate on the level-0 partition write) and requires that, while it is in
// flight, ObserveSlice returns and a query answers within ε over everything
// observed — the sealed step through its sorted batch, the new elements
// through the live one. Only the EndStep caller waits for the install.
func TestSyncInstallBlocksNobody(t *testing.T) {
	eng := OneStream(t, maintConfig())
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
	if got := eng.Status(); got.PendingSteps != 1 || !got.Running {
		t.Errorf("with the install in flight: %d sealed steps, running = %v; want 1, true", got.PendingSteps, got.Running)
	}
	checkAgainstOracle(t, eng, all, "install in flight")
	release()
	if err := <-endStep; err != nil {
		t.Fatalf("EndStep: %v", err)
	}
	eng.db.dev.SetFault(nil)
	if got := eng.Status().PendingSteps; got != 0 {
		t.Errorf("%d steps still sealed after EndStep returned", got)
	}
	checkAgainstOracle(t, eng, all, "installed")
}

// TestCountsAgreeDuringSeal parks a step's level-0 partition write and
// requires every counter to agree with the answers while it is in flight:
// the cut hands the batch to the store in the same move that empties the
// live step, so from then on the step is history to every reader, counted
// and answered alike. The answers come from the sealed step's sorted batch
// alone, and quantiles and ranks are held to internal/oracle within ε·N.
// One Status read reports the step as history and as backlog, with its
// write running.
func TestCountsAgreeDuringSeal(t *testing.T) {
	eng := OneStream(t, maintConfig())
	parked, gate := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, which waits for the EndStep
	var once sync.Once
	eng.db.dev.SetFault(func(op disk.Op, name string, block int64) error {
		if op == disk.OpSeqWrite && partFile(name) {
			once.Do(func() { close(parked) })
			<-gate
		}
		return nil
	})
	vals := workload.Fill(workload.NewUniform(23), 500)
	or := oracle.New(len(vals))
	or.Add(vals...)
	eng.ObserveSlice(vals)
	endStep := make(chan error, 1)
	go func() {
		_, err := eng.EndStep()
		endStep <- err
	}()
	<-parked

	phis := []float64{0.01, 0.5, 0.99}
	ans, err := eng.Query(context.Background(), Request{Phis: phis})
	if err != nil {
		t.Fatalf("query with the write in flight: %v", err)
	}
	bound := int64(eng.Epsilon() * 500)
	for i, phi := range phis {
		target := int64(math.Ceil(phi * 500))
		if e := or.SpanError(target, ans.Values[i]); e > bound {
			t.Errorf("write in flight: quantile(%g) = %d, rank error %d > ε·N = %d", phi, ans.Values[i], e, bound)
		}
	}
	probes := []int64{slices.Min(vals) - 1, vals[0], vals[1], vals[2], slices.Max(vals)}
	ranks, err := eng.Query(context.Background(), Request{Values: probes})
	if err != nil {
		t.Fatalf("rank query with the write in flight: %v", err)
	}
	for i, v := range probes {
		if e := ranks.Values[i] - or.Rank(v); e > bound || -e > bound {
			t.Errorf("write in flight: rank(%d) = %d, exact %d, off by more than ε·N = %d", v, ranks.Values[i], or.Rank(v), bound)
		}
	}
	sum, err := eng.Summary()
	if err != nil {
		t.Fatalf("summary with the write in flight: %v", err)
	}
	total, hist, steps := eng.TotalCount(), eng.HistCount(), eng.Steps()
	pending := eng.Status().PendingSteps
	t.Logf("write in flight: TotalCount %d, HistCount %d, Steps %d, PendingSteps %d; Query N %d, Summary N %d",
		total, hist, steps, pending, ans.N, sum.N)
	if ans.N != 500 || ranks.N != 500 || sum.N != ans.N {
		t.Errorf("Query N = %d and %d, Summary N = %d; want 500 all", ans.N, ranks.N, sum.N)
	}
	if total != ans.N || hist != ans.N {
		t.Errorf("TotalCount = %d, HistCount = %d; the answers cover %d", total, hist, ans.N)
	}
	if steps != 1 || pending != 1 {
		t.Errorf("Steps = %d, PendingSteps = %d; want 1, 1", steps, pending)
	}
	if st := eng.Status(); st.PendingSteps != 1 || st.PendingElements != 500 || !st.Running || st.HistCount != 500 {
		t.Errorf("Status with the write in flight: PendingSteps %d, PendingElements %d, Running %v, HistCount %d; want 1, 500, true, 500",
			st.PendingSteps, st.PendingElements, st.Running, st.HistCount)
	}
	release()
	if err := <-endStep; err != nil {
		t.Fatalf("EndStep: %v", err)
	}
	eng.db.dev.SetFault(nil)
	if got := eng.Status().PendingSteps; got != 0 || eng.TotalCount() != 500 {
		t.Errorf("after EndStep: %d steps sealed, TotalCount %d; want 0, 500", got, eng.TotalCount())
	}
}

// TestCheckpointClearsMergeDebt fails the merge a step makes due, then
// requires DB.Checkpoint — the barrier every stream passes — to retry it:
// Checkpoint returns with no merge due, and a reopen without Close finds the
// layout of a twin run that never saw the fault.
func TestCheckpointClearsMergeDebt(t *testing.T) {
	cfg := Options{Epsilon: 0.05, Kappa: 3, Dir: t.TempDir(), BlockSize: 1024}
	eng := OneStream(t, cfg)
	gen := workload.NewUniform(1)
	feedSteps(t, eng, gen, 3, 500)
	eng.db.dev.SetFault(failMerges) // κ=3: the 4th step's partition makes a merge due
	eng.ObserveSlice(workload.Fill(gen, 500))
	if _, err := eng.EndStep(); err == nil || !strings.Contains(err.Error(), errInjected.Error()) {
		t.Fatalf("EndStep with its merge failing: err = %v, want the injected fault", err)
	}
	eng.db.dev.SetFault(nil)
	if got := eng.Status().PendingSteps; got != 1 {
		t.Fatalf("after the failed merge: PendingSteps = %d, want 1", got)
	}
	if err := eng.DB().Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := eng.Status().PendingSteps; got != 0 {
		t.Errorf("after Checkpoint: PendingSteps = %d, want 0 (no merge due)", got)
	}
	want := faultFreeLayout(t, cfg, 4, 500)
	re := OneStream(t, cfg) // a second DB over the same directory: the reopen
	if got := re.Describe(); !slices.Equal(got, want) {
		t.Errorf("reopened layout %+v, want the fault-free run's %+v", got, want)
	}
}

// TestMaintenanceWindowsWithBacklog covers the windowed-query composition
// with a backlog: a step whose level-0 write failed stays sealed and is the
// newest window; the partition-aligned windows shift by one behind it.
func TestMaintenanceWindowsWithBacklog(t *testing.T) {
	eng := OneStream(t, maintConfig())
	gen := workload.NewUniform(5)
	// Two installed steps...
	feedSteps(t, eng, gen, 2, 300)
	installedWins := eng.AvailableWindows()
	// ...then a sealed-but-uninstalled step: its level-0 write fails.
	eng.db.dev.SetFault(func(op disk.Op, name string, block int64) error {
		if op == disk.OpSeqWrite && partFile(name) {
			return errInjected
		}
		return nil
	})
	eng.ObserveSlice(workload.Fill(gen, 300))
	if _, err := eng.EndStep(); err == nil || !strings.Contains(err.Error(), errInjected.Error()) {
		t.Fatalf("EndStep with its write failing: err = %v, want the injected fault", err)
	}
	eng.db.dev.SetFault(nil)
	wins := eng.AvailableWindows()
	want := map[int]bool{1: true}
	for _, w := range installedWins {
		want[w+1] = true
	}
	if len(wins) != len(want) {
		t.Errorf("AvailableWindows = %v, want installed wins %v + 1 sealed", wins, installedWins)
	}
	for _, w := range wins {
		if !want[w] {
			t.Errorf("AvailableWindows = %v: window %d unexpected (installed wins %v + 1 sealed)", wins, w, installedWins)
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

// dbBacklog sums every stream's Status into the DB-wide write-path picture,
// as hsqd's GET /streams scheduler block does.
func dbBacklog(db *DB) (ss struct {
	PendingSteps     int
	MergeDebt        int64
	Installs, Merges int
}) {
	for _, name := range db.Streams() {
		st, ok := db.Lookup(name)
		if !ok {
			continue
		}
		s := st.Status()
		ss.PendingSteps += s.PendingSteps
		ss.MergeDebt += s.PendingElements
		ss.Installs += s.Installs
		ss.Merges += s.Merges
	}
	return ss
}

// TestDBWaitIdleAndSchedulerStats drives several streams of one DB, fails
// the merge one of them makes due, and checks the DB-wide backlog accounting
// (the streams' Status summed) plus Checkpoint as the retry that clears it.
func TestDBWaitIdleAndSchedulerStats(t *testing.T) {
	db, err := Open(Options{Epsilon: 0.05, Kappa: 3, Backend: "mem", BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	db.dev.SetFault(func(op disk.Op, name string, block int64) error {
		if strings.HasPrefix(name, "streams/s1/") {
			return failMerges(op, name, block)
		}
		return nil
	})
	gen := workload.NewUniform(9)
	data := make(map[string][]int64)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("s%d", i)
		st, err := db.Stream(name)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ { // κ=3: the 4th step's partition makes a merge due
			vals := workload.Fill(gen, 500)
			data[name] = append(data[name], vals...)
			st.ObserveSlice(vals)
			_, err := st.EndStep()
			if failed := name == "s1" && k == 3; failed != (err != nil) {
				t.Fatalf("stream %s EndStep %d: err = %v, want a failed merge %v", name, k+1, err, failed)
			}
		}
	}
	ss := dbBacklog(db)
	if ss.PendingSteps != 1 || ss.MergeDebt != 500 || ss.Installs != 12 || ss.Merges != 2 {
		t.Errorf("with s1's merge failed: %d steps / %d elements pending, %d installs, %d merges; want 1 / 500 (s1's partition past κ), 12, 2",
			ss.PendingSteps, ss.MergeDebt, ss.Installs, ss.Merges)
	}
	db.dev.SetFault(nil)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	ss = dbBacklog(db)
	if ss.PendingSteps != 0 || ss.MergeDebt != 0 || ss.Merges != 3 {
		t.Errorf("after Checkpoint: pending %d steps / debt %d, %d merges; want 0 / 0, 3", ss.PendingSteps, ss.MergeDebt, ss.Merges)
	}
	if db.DiskStats().SeqWrites == 0 {
		t.Error("device-wide SeqWrites is zero after 12 installs")
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

// TestManualRestartRecoversSealedSteps reopens a stream after an unclean
// shutdown — no Close, no SyncMaintenance, a merge left due by its failure —
// and requires the reopen to find every step EndStep committed as a
// partition: the same layout, with no step replayed and nothing written.
func TestManualRestartRecoversSealedSteps(t *testing.T) {
	dir := t.TempDir()
	cfg := Options{Epsilon: 0.05, Kappa: 3, Dir: dir, BlockSize: 1024}
	eng := OneStream(t, cfg)
	gen := workload.NewUniform(11)
	all := feedSteps(t, eng, gen, 3, 350)
	// The 4th step's partition makes a merge due, and the merge fails; the
	// step's commit does not. The first DB is never closed cleanly: its fault
	// hook stays set.
	eng.db.dev.SetFault(failMerges)
	vals := workload.Fill(gen, 350)
	all = append(all, vals...)
	eng.ObserveSlice(vals)
	if _, err := eng.EndStep(); err == nil || !strings.Contains(err.Error(), errInjected.Error()) {
		t.Fatalf("EndStep with its merge failing: err = %v, want the injected fault", err)
	}
	want := eng.Describe()
	if len(want) != 1 || want[0].Partitions != 4 {
		t.Fatalf("layout %+v, want the 4 steps' partitions at level 0 (no merge run)", want)
	}

	re := OneStream(t, cfg) // a second DB over the same directory: the reopen
	if got := re.Steps(); got != 4 {
		t.Errorf("recovered Steps = %d, want 4", got)
	}
	if got := re.HistCount(); got != int64(len(all)) {
		t.Errorf("recovered HistCount = %d, want %d", got, len(all))
	}
	if got := re.Describe(); !slices.Equal(got, want) {
		t.Errorf("recovered layout %+v, want %+v", got, want)
	}
	if got := re.DiskStats().SeqWrites; got != 0 {
		t.Errorf("the reopen wrote %d blocks, want none (nothing to replay)", got)
	}
	if got := re.Status().PendingSteps; got != 1 {
		t.Errorf("recovered pending = %d, want the 1 partition past κ (a reopen merges nothing)", got)
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
	// Every EndStep runs its own merges: "" and "sync" are the only
	// maintenance values, and any other fails Open with the removal.
	for _, mode := range []string{"async", "manual", "turbo"} {
		_, err := Open(Options{Epsilon: 0.1, Backend: "mem", Maintenance: mode})
		if err == nil || !strings.Contains(err.Error(), "async and manual maintenance were removed, every EndStep runs its own merges") {
			t.Errorf("Maintenance=%s: err = %v, want the removal", mode, err)
		}
	}
	for _, mode := range []string{"", MaintenanceSync} {
		db, err := Open(Options{Epsilon: 0.1, Backend: "mem", Maintenance: mode})
		if err != nil {
			t.Errorf("Maintenance=%q: %v", mode, err)
			continue
		}
		db.Close() //nolint:errcheck
	}
}

// maintBenchConfig is the benchmarks' engine: κ=2 so merges cascade
// constantly, simulated SSD latency so the sort+merge cost each EndStep runs
// is the device's rather than the allocator's.
var maintBenchConfig = Options{
	Epsilon: 0.01, Kappa: 2, Backend: "mem", BlockSize: 4096, SimulateDisk: "ssd",
}

// reportPct reports the pct-th percentile of lat as the metric name.
func reportPct(b *testing.B, lat []time.Duration, pct int, name string) {
	b.Helper()
	if len(lat) == 0 {
		return
	}
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)*pct/100].Nanoseconds()), name)
}

// BenchmarkIngestStall measures the write path's tail latency across step
// boundaries: a producer observes continuously while the bench loop closes
// steps. No EndStep holds the engine lock across its write or its merges, so
// Observe p99 is the cost of the lock hand-off at the cut; p50/p99-endstep-ns
// (and ns/op) are what the EndStep caller pays for the seal, the level-0
// write, the merges it makes due and the commit.
func BenchmarkIngestStall(b *testing.B) {
	eng := OneStream(b, maintBenchConfig)
	gen := workload.NewUniform(21)
	vals := workload.Fill(gen, 1<<16)

	// Low-rate latency probe: one Observe every ~200µs, so the batch volume
	// stays owned by the bench loop while the probe samples how long an
	// Observe waits behind a step boundary.
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
	reportPct(b, endStep, 50, "p50-endstep-ns")
	reportPct(b, endStep, 99, "p99-endstep-ns")
	stop.Store(true)
	wg.Wait()
	mu.Lock()
	reportPct(b, lat, 99, "p99-observe-ns")
	mu.Unlock()
}

// BenchmarkQueryDuringMerge measures accurate-query latency while level-0
// writes and κ-way merges run: a producer keeps closing steps (κ=2, so
// cascades are constant) while the bench loop queries. Reads are
// snapshot-isolated from the writes and merges each EndStep runs, so a query
// waits for neither; it covers a step by its sorted batch only while that
// step's write is in flight.
func BenchmarkQueryDuringMerge(b *testing.B) {
	eng := OneStream(b, maintBenchConfig)
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
	reportPct(b, lat, 99, "p99-query-ns")
}
