package hsq_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/disk"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// gateBackend wraps a Backend and blocks every Open/ReadMeta touching the
// gated prefix until the gate channel closes, signalling entered once. It
// simulates a stream whose hydration (manifest read + summary-rebuild
// scan) is arbitrarily slow — the regression scenario for the historical
// bug where DB.Stream held db.mu across the whole cold open.
type gateBackend struct {
	disk.Backend
	prefix  string
	gate    chan struct{}
	entered sync.Once
	signal  chan struct{}
}

func (g *gateBackend) wait(name string) {
	if strings.HasPrefix(name, g.prefix) {
		g.entered.Do(func() { close(g.signal) })
		<-g.gate
	}
}

func (g *gateBackend) Open(name string) (disk.ReadHandle, error) {
	g.wait(name)
	return g.Backend.Open(name)
}

func (g *gateBackend) ReadMeta(name string) ([]byte, error) {
	g.wait(name)
	return g.Backend.ReadMeta(name)
}

// seedTwoStreams builds a device holding two streams with committed
// history and returns the backend for a reopen.
func seedTwoStreams(t *testing.T) disk.Backend {
	t.Helper()
	inner := disk.NewMemBackend()
	db, err := hsq.Open(hsq.Options{Epsilon: 0.05, Kappa: 2, Device: inner, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hot", "cold"} {
		st, err := db.Stream(name)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 2; s++ {
			for i := int64(0); i < 600; i++ {
				st.Observe(i)
			}
			if _, err := st.EndStep(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return inner
}

// TestColdOpenDoesNotBlockHotStream is the regression test for the
// DB-wide cold-open stall: with one stream's hydration blocked on disk
// indefinitely, operations on an already-hydrated stream must still
// complete, because hydration runs outside db.mu under a per-name
// singleflight lock.
func TestColdOpenDoesNotBlockHotStream(t *testing.T) {
	inner := seedTwoStreams(t)
	gb := &gateBackend{
		Backend: inner,
		prefix:  "streams/cold/",
		gate:    make(chan struct{}),
		signal:  make(chan struct{}),
	}
	db, err := hsq.Open(hsq.Options{Epsilon: 0.05, Kappa: 2, Device: gb, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck

	hot, err := db.Stream("hot") // hydrates the hot stream
	if err != nil {
		t.Fatal(err)
	}

	coldDone := make(chan error, 1)
	go func() {
		_, err := db.Stream("cold")
		coldDone <- err
	}()
	<-gb.signal // the cold hydration is now parked on its first read

	hotDone := make(chan error, 1)
	go func() {
		if err := hot.ObserveCtx(context.Background(), 41); err != nil {
			hotDone <- fmt.Errorf("hot observe: %w", err)
			return
		}
		if _, _, err := hot.Quantile(0.5); err != nil {
			hotDone <- fmt.Errorf("hot quantile: %w", err)
			return
		}
		if _, ok := db.Lookup("hot"); !ok {
			hotDone <- errors.New("hot stream vanished from Lookup")
			return
		}
		hotDone <- nil
	}()
	select {
	case err := <-hotDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hot-stream operations blocked behind a cold stream open")
	}

	close(gb.gate)
	if err := <-coldDone; err != nil {
		t.Fatalf("cold open after release: %v", err)
	}
}

// TestLookupAfterClose is the regression test for Lookup ignoring
// db.closed: a closed DB must report every stream — including ones it
// hosted — as not found, rather than handing out handles whose every
// operation fails.
func TestLookupAfterClose(t *testing.T) {
	db, err := hsq.Open(hsq.Options{Epsilon: 0.05, Kappa: 2, Backend: "mem", BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Stream("s"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Lookup("s"); !ok {
		t.Fatal("Lookup before Close: stream missing")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Lookup("s"); ok {
		t.Error("Lookup after Close returned a live stream")
	}
	if _, ok := db.Lookup("never-existed"); ok {
		t.Error("Lookup after Close invented a stream")
	}
}

// failMetaBackend fails WriteMeta for names matching the armed substring.
type failMetaBackend struct {
	disk.Backend
	mu    sync.Mutex
	match string
}

func (f *failMetaBackend) arm(match string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.match = match
}

func (f *failMetaBackend) WriteMeta(name string, data []byte) error {
	f.mu.Lock()
	match := f.match
	f.mu.Unlock()
	if match != "" && strings.Contains(name, match) {
		return fmt.Errorf("injected meta-write failure for %s", name)
	}
	return f.Backend.WriteMeta(name, data)
}

// TestClosePartialFailure is the regression test for Close aborting on the
// first stream error: with one stream's manifest commit failing, Close
// must still seal every other stream, mark the DB closed exactly once,
// and join the failure into the returned error. A second Close is a
// no-op.
func TestClosePartialFailure(t *testing.T) {
	fb := &failMetaBackend{Backend: disk.NewMemBackend()}
	db, err := hsq.Open(hsq.Options{Epsilon: 0.05, Kappa: 2, Device: fb, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		st, err := db.Stream(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for v := int64(0); v < 200; v++ {
			st.Observe(v)
		}
		if _, err := st.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	fb.arm("streams/s1/MANIFEST.json")
	err = db.Close()
	if err == nil {
		t.Fatal("Close succeeded despite an injected manifest failure")
	}
	if !strings.Contains(err.Error(), `"s1"`) {
		t.Errorf("Close error does not name the failing stream: %v", err)
	}
	// The DB is closed despite the partial failure: no handles, no new
	// streams, and a repeat Close is a clean no-op.
	if _, ok := db.Lookup("s0"); ok {
		t.Error("Lookup after failed Close returned a live stream")
	}
	if _, err := db.Stream("s2"); !errors.Is(err, hsq.ErrClosed) {
		t.Errorf("Stream after failed Close: %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("second Close: %v, want nil (idempotent)", err)
	}
}

// TestEvictionRoundTrip drives more streams than the hydration budget
// admits and checks the full seal/evict/rehydrate cycle: queries against
// evicted streams transparently rehydrate and still answer within ε,
// the hydrated count converges to the budget, and per-stream I/O
// counters survive eviction (they keep summing to the device aggregate).
func TestEvictionRoundTrip(t *testing.T) {
	const streams = 6
	db, err := hsq.Open(hsq.Options{
		Epsilon: 0.02, Kappa: 3, Backend: "mem", BlockSize: 1024,
		MaxHydratedStreams: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck

	oracles := make([]*oracle.Oracle, streams)
	for i := 0; i < streams; i++ {
		st, err := db.Stream(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		or := oracle.New(2000)
		rng := rand.New(rand.NewSource(int64(i + 1)))
		for s := 0; s < 2; s++ {
			for k := 0; k < 800; k++ {
				v := rng.Int63n(1 << 20)
				st.Observe(v)
				or.Add(v)
			}
			if _, err := st.EndStep(); err != nil {
				t.Fatal(err)
			}
		}
		oracles[i] = or
	}

	ds := db.DirectoryStats()
	if ds.Registered != streams {
		t.Fatalf("Registered = %d, want %d", ds.Registered, streams)
	}
	if ds.Hydrated > 2 {
		t.Errorf("Hydrated = %d exceeds budget 2 with all streams idle", ds.Hydrated)
	}
	if ds.Evictions == 0 {
		t.Error("no evictions despite exceeding the hydration budget")
	}

	// Every stream — mostly evicted by now — must still answer correctly.
	for round := 0; round < 2; round++ {
		for i := 0; i < streams; i++ {
			st, ok := db.Lookup(fmt.Sprintf("s%d", i))
			if !ok {
				t.Fatalf("stream s%d missing", i)
			}
			or := oracles[i]
			n := or.Count()
			bound := int64(0.02*float64(n)) + 1
			for _, phi := range []float64{0.1, 0.5, 0.99} {
				v, _, err := st.Quantile(phi)
				if err != nil {
					t.Fatalf("s%d quantile(%g): %v", i, phi, err)
				}
				target := int64(phi * float64(n))
				if target < 1 {
					target = 1
				}
				if spanErr := or.SpanError(target, v); spanErr > bound {
					t.Errorf("s%d quantile(%g) = %d after rehydration: rank error %d > %d", i, phi, v, spanErr, bound)
				}
			}
		}
	}

	ds = db.DirectoryStats()
	if ds.Hydrations <= uint64(streams) {
		t.Errorf("Hydrations = %d, want > %d (streams must have cycled)", ds.Hydrations, streams)
	}

	// Per-stream I/O counters are per-view and cached across eviction:
	// their sum must equal the device aggregate exactly.
	var sum hsq.IOStats
	for _, name := range db.Streams() {
		st, _ := db.Lookup(name)
		sum = sum.Add(st.DiskStats())
	}
	if agg := db.DiskStats(); sum != agg {
		t.Errorf("per-stream IO %+v does not sum to device aggregate %+v", sum, agg)
	}
}

// TestDirectoryGrowthKeepsResidentSetAtBudget grows the directory 1000× by
// bulk registration under a fixed hydration budget: the resident set tracks
// the budget and not the directory, evicted streams cycle through it, and
// live heap after GC stays within 1.5× of what the hot set alone held (a
// cold stream costs a directory entry, not an engine).
func TestDirectoryGrowthKeepsResidentSetAtBudget(t *testing.T) {
	const (
		hotStreams  = 8
		poolStreams = 12
		budget      = 12
		batch       = 16000
	)
	db, err := hsq.Open(hsq.Options{
		Epsilon: 0.003, Kappa: 3, Dir: t.TempDir(), BlockSize: 4096,
		CacheBlocks: 4096, MaxHydratedStreams: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck

	// The hot set carries a real working footprint — the claim is relative
	// to it; an empty hot set would make any directory look heavy.
	hot := make([]*hsq.Stream, hotStreams)
	for i := range hot {
		if hot[i], err = db.Stream(fmt.Sprintf("hot%02d", i)); err != nil {
			t.Fatal(err)
		}
		loadStream(t, hot[i], int64(i+1), 10, batch)
	}
	for i := 0; i < poolStreams; i++ {
		st, err := db.Stream(fmt.Sprintf("pool%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		loadStream(t, st, int64(100+i), 1, batch/4)
	}
	gen := workload.NewUniform(1)
	var phis []float64
	for q := 0.02; q < 1; q += 0.04 {
		phis = append(phis, q)
	}
	// traffic feeds and polls the hot set (live buffers keep it resident,
	// dense polls keep the shared block cache warm) and touches every pool
	// stream, then reports live heap and the directory.
	traffic := func() (heap uint64, ds hsq.DirectoryStats) {
		t.Helper()
		for _, st := range hot {
			for i := 0; i < 250; i++ {
				st.Observe(gen.Next())
			}
			if _, _, err := st.Quantiles(phis); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < poolStreams; i++ {
			st, ok := db.Lookup(fmt.Sprintf("pool%03d", i))
			if !ok {
				t.Fatalf("pool stream %d missing", i)
			}
			if _, _, err := st.Quantile(0.5); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, db.DirectoryStats()
	}

	heap0, ds0 := traffic()
	registered := hotStreams + poolStreams
	names := make([]string, 0, 999*registered)
	for i := registered; i < 1000*registered; i++ {
		names = append(names, fmt.Sprintf("u%06d", i))
	}
	if err := db.RegisterStreams(names...); err != nil {
		t.Fatal(err)
	}
	heap1, ds1 := traffic()

	if ds0.Registered != registered || ds1.Registered != 1000*registered {
		t.Fatalf("Registered = %d then %d, want %d then %d", ds0.Registered, ds1.Registered, registered, 1000*registered)
	}
	for _, ds := range []hsq.DirectoryStats{ds0, ds1} {
		if ds.Hydrated > budget {
			t.Errorf("%d registered: %d hydrated streams exceed the budget %d",
				ds.Registered, ds.Hydrated, budget)
		}
	}
	if ds1.Evictions <= ds0.Evictions {
		t.Errorf("evictions %d -> %d: cold touches past the budget evicted nothing", ds0.Evictions, ds1.Evictions)
	}
	ratio := float64(heap1) / float64(heap0)
	t.Logf("live heap %.1f MB -> %.1f MB (%.2fx), hydrated %d -> %d, evictions %d -> %d",
		float64(heap0)/(1<<20), float64(heap1)/(1<<20), ratio, ds0.Hydrated, ds1.Hydrated, ds0.Evictions, ds1.Evictions)
	if ratio > 1.5 {
		t.Errorf("live heap grew %.2fx (%.1f MB -> %.1f MB) across 1000x registered streams, want <= 1.5x",
			ratio, float64(heap0)/(1<<20), float64(heap1)/(1<<20))
	}
}

// removeGateBackend, once armed, blocks every Remove touching the gated
// prefix until the gate channel closes, signalling entered once — it
// parks a stream destroy mid-deletion, the window in which a concurrent
// re-create used to hydrate over the half-deleted namespace. It starts
// disarmed because ordinary commits also Remove retired partition files.
type removeGateBackend struct {
	disk.Backend
	prefix  string
	armed   atomic.Bool
	gate    chan struct{}
	entered sync.Once
	signal  chan struct{}
}

func (g *removeGateBackend) Remove(name string) error {
	if g.armed.Load() && strings.HasPrefix(name, g.prefix) {
		g.entered.Do(func() { close(g.signal) })
		<-g.gate
	}
	return g.Backend.Remove(name)
}

// TestDropStreamRecreateWaitsForDestroy is the regression test for the
// drop/re-create race: with DropStream parked mid-destroy (files being
// deleted), the name must be fully claimed — Lookup misses, Streams and
// DirectoryStats exclude it, RegisterStreams rejects it, and a Stream
// re-create parks until the destroy finishes rather than hydrating a new
// engine over the half-deleted namespace — while operations on other
// streams proceed. The re-created stream must start empty, never resuming
// the dropped stream's not-yet-deleted state.
func TestDropStreamRecreateWaitsForDestroy(t *testing.T) {
	gb := &removeGateBackend{
		Backend: disk.NewMemBackend(),
		prefix:  "streams/x/",
		gate:    make(chan struct{}),
		signal:  make(chan struct{}),
	}
	db, err := hsq.Open(hsq.Options{Epsilon: 0.05, Kappa: 2, Device: gb, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	x, err := db.Stream("x")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		x.Observe(i)
	}
	if _, err := x.EndStep(); err != nil {
		t.Fatal(err)
	}
	y, err := db.Stream("y")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		y.Observe(i)
	}
	if _, err := y.EndStep(); err != nil {
		t.Fatal(err)
	}

	gb.armed.Store(true)
	dropDone := make(chan error, 1)
	go func() { dropDone <- db.DropStream("x") }()
	<-gb.signal // the destroy is now parked mid-Remove

	// The committed drop is visible everywhere even though files remain.
	if _, ok := db.Lookup("x"); ok {
		t.Error("Lookup found a stream whose drop is committed")
	}
	for _, n := range db.Streams() {
		if n == "x" {
			t.Error("Streams lists a stream whose drop is committed")
		}
	}
	if err := db.RegisterStreams("x"); err == nil {
		t.Error("RegisterStreams re-registered a name mid-destroy")
	}
	if ds := db.DirectoryStats(); ds.Registered != 1 {
		t.Errorf("Registered = %d during the destroy, want 1 (just y)", ds.Registered)
	}

	// Other streams are untouched by the parked destroy.
	if err := y.ObserveCtx(context.Background(), 7); err != nil {
		t.Fatalf("observe on another stream during a destroy: %v", err)
	}
	if _, _, err := y.Quantile(0.5); err != nil {
		t.Fatalf("quantile on another stream during a destroy: %v", err)
	}

	// A re-create parks until the destroy completes.
	recreated := make(chan *hsq.Stream, 1)
	recErr := make(chan error, 1)
	go func() {
		st, err := db.Stream("x")
		if err != nil {
			recErr <- err
			return
		}
		recreated <- st
	}()
	select {
	case <-recreated:
		t.Fatal("Stream re-created x while its destroy was still deleting files")
	case err := <-recErr:
		t.Fatalf("re-create during destroy: %v, want it to wait", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(gb.gate)
	if err := <-dropDone; err != nil {
		t.Fatalf("drop after release: %v", err)
	}
	var st *hsq.Stream
	select {
	case st = <-recreated:
	case err := <-recErr:
		t.Fatalf("re-create after destroy: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("re-create still parked after the destroy completed")
	}
	if n := st.TotalCount(); n != 0 {
		t.Fatalf("re-created stream resurrected %d elements from the dropped stream", n)
	}
}

// TestCloseDetachesEngines is the regression test for Close leaving
// engine pointers and the hydrated count behind: after Close, the
// directory must report zero hydrated streams and DB-wide barriers must
// find no engines to pin, while the registered set stays intact.
func TestCloseDetachesEngines(t *testing.T) {
	db, err := hsq.Open(hsq.Options{Epsilon: 0.05, Kappa: 2, Backend: "mem", BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		st, err := db.Stream(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for v := int64(0); v < 200; v++ {
			st.Observe(v)
		}
		if _, err := st.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	if ds := db.DirectoryStats(); ds.Hydrated != 3 {
		t.Fatalf("Hydrated = %d before Close, want 3", ds.Hydrated)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ds := db.DirectoryStats()
	if ds.Hydrated != 0 {
		t.Errorf("Hydrated = %d after Close, want 0", ds.Hydrated)
	}
	if ds.Registered != 3 {
		t.Errorf("Registered = %d after Close, want 3 (directory survives Close)", ds.Registered)
	}
	ss := db.SchedulerStats()
	if h := db.DirectoryStats().Hydrated; h != 0 {
		t.Errorf("DirectoryStats().Hydrated = %d after SchedulerStats past Close, want 0", h)
	}
	if ss.PendingSteps != 0 || ss.MergeDebt != 0 {
		t.Errorf("SchedulerStats backlog %d steps / %d elements after Close, want none (no engines to pin)", ss.PendingSteps, ss.MergeDebt)
	}
}

// churnModel is the single-owner shadow state for one stream in the churn
// test: sealed holds every element covered by a successful EndStep, live
// the elements observed since.
type churnModel struct {
	sealed []int64
	live   []int64
}

// TestDirectoryChurn runs seeded concurrent Stream/Observe/EndStep/
// DropStream traffic (with a tiny hydration budget, so eviction interleaves
// everywhere) against per-stream shadow models, then asserts the on-disk
// directory equals the registered set, every surviving stream matches its
// model exactly, and a reopen over the same device recovers the same
// directory. Writers shard streams by ownership so each model is exact;
// extra readers race Lookup/Quantile against drops and evictions. Replay a
// failure with HSQ_PROP_SEED.
func TestDirectoryChurn(t *testing.T) {
	seed := int64(7)
	if s := os.Getenv("HSQ_PROP_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad HSQ_PROP_SEED %q: %v", s, err)
		}
		seed = v
	}
	const (
		workers = 4
		streams = 8
		ops     = 150
	)
	inner := disk.NewMemBackend()
	db, err := hsq.Open(hsq.Options{
		Epsilon: 0.05, Kappa: 2, Device: inner, BlockSize: 512,
		MaxHydratedStreams: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	models := make([]*churnModel, streams)
	for i := range models {
		models[i] = &churnModel{}
	}
	var writerWG, readerWG sync.WaitGroup
	errCh := make(chan error, workers+2)
	for w := 0; w < workers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			owned := make([]int, 0, streams/workers)
			for s := w; s < streams; s += workers {
				owned = append(owned, s)
			}
			for op := 0; op < ops; op++ {
				s := owned[rng.Intn(len(owned))]
				name := fmt.Sprintf("s%d", s)
				m := models[s]
				st, err := db.Stream(name)
				if err != nil {
					errCh <- fmt.Errorf("worker %d: stream %s: %w", w, name, err)
					return
				}
				switch k := rng.Intn(10); {
				case k <= 4: // observe a batch
					vals := make([]int64, 1+rng.Intn(48))
					for i := range vals {
						vals[i] = rng.Int63n(1 << 16)
					}
					if err := st.ObserveSliceCtx(context.Background(), vals); err != nil {
						errCh <- fmt.Errorf("worker %d: observe %s: %w", w, name, err)
						return
					}
					m.live = append(m.live, vals...)
				case k <= 6: // seal the batch
					if len(m.live) == 0 {
						continue
					}
					if _, err := st.EndStep(); err != nil {
						errCh <- fmt.Errorf("worker %d: endstep %s: %w", w, name, err)
						return
					}
					m.sealed = append(m.sealed, m.live...)
					m.live = nil
				case k == 7: // drop and restart the stream's history
					if err := db.DropStream(name); err != nil {
						errCh <- fmt.Errorf("worker %d: drop %s: %w", w, name, err)
						return
					}
					m.sealed, m.live = nil, nil
				default: // read back through a fresh handle
					if got, want := st.TotalCount(), int64(len(m.sealed)+len(m.live)); got != want {
						errCh <- fmt.Errorf("worker %d: %s TotalCount = %d, want %d", w, name, got, want)
						return
					}
				}
			}
		}(w)
	}
	// Readers race Lookup/Quantile against drops, evictions and
	// hydrations; the only acceptable failure is ErrClosed from a handle
	// that lost a race with DropStream.
	stopReaders := make(chan struct{})
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(seed + 1000 + int64(r)))
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				name := fmt.Sprintf("s%d", rng.Intn(streams))
				st, ok := db.Lookup(name)
				if !ok {
					continue
				}
				_, _, err := st.Quantile(0.5)
				if err != nil && !errors.Is(err, hsq.ErrClosed) &&
					!strings.Contains(err.Error(), "empty dataset") {
					errCh <- fmt.Errorf("reader %d: quantile %s: %w", r, name, err)
					return
				}
			}
		}(r)
	}

	writerWG.Wait()
	close(stopReaders)
	readerWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("seed=%d: %v (replay with HSQ_PROP_SEED)", seed, err)
	}

	checkDirMatchesManifest(t, db, inner, seed)

	// Surviving streams must match their models exactly, through however
	// many evict/rehydrate cycles they went.
	registered := make(map[string]bool)
	for _, name := range db.Streams() {
		registered[name] = true
	}
	for s, m := range models {
		name := fmt.Sprintf("s%d", s)
		if !registered[name] {
			if len(m.sealed)+len(m.live) != 0 {
				t.Fatalf("seed=%d: stream %s has model state but is not registered", seed, name)
			}
			continue
		}
		st, ok := db.Lookup(name)
		if !ok {
			t.Fatalf("seed=%d: registered stream %s missing from Lookup", seed, name)
		}
		if got, want := st.HistCount(), int64(len(m.sealed)); got != want {
			t.Errorf("seed=%d: %s HistCount = %d, want %d", seed, name, got, want)
		}
		if got, want := st.TotalCount(), int64(len(m.sealed)+len(m.live)); got != want {
			t.Errorf("seed=%d: %s TotalCount = %d, want %d", seed, name, got, want)
		}
		checkChurnQuantiles(t, st, append(append([]int64(nil), m.sealed...), m.live...), name, seed)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("seed=%d: close: %v", seed, err)
	}

	// A reopen over the same device recovers the same directory, and each
	// stream's sealed history (live batches are volatile across Close —
	// the engine's Close drops them by contract).
	re, err := hsq.Open(hsq.Options{
		Epsilon: 0.05, Kappa: 2, Device: inner, BlockSize: 512,
		MaxHydratedStreams: 2,
	})
	if err != nil {
		t.Fatalf("seed=%d: reopen: %v", seed, err)
	}
	defer re.Close() //nolint:errcheck
	gotNames := re.Streams()
	wantNames := make([]string, 0, len(registered))
	for name := range registered {
		wantNames = append(wantNames, name)
	}
	sort.Strings(wantNames)
	if !equalStrings(gotNames, wantNames) {
		t.Fatalf("seed=%d: reopened directory %v, want %v", seed, gotNames, wantNames)
	}
	for s, m := range models {
		name := fmt.Sprintf("s%d", s)
		if !registered[name] {
			continue
		}
		st, ok := re.Lookup(name)
		if !ok {
			t.Fatalf("seed=%d: reopened stream %s missing", seed, name)
		}
		if got, want := st.HistCount(), int64(len(m.sealed)); got != want {
			t.Errorf("seed=%d: reopened %s HistCount = %d, want %d", seed, name, got, want)
		}
	}
}

// checkDirMatchesManifest asserts the durable DB manifest equals the
// registered set reported by the live DB.
func checkDirMatchesManifest(t *testing.T, db *hsq.DB, backend disk.Backend, seed int64) {
	t.Helper()
	data, err := backend.ReadMeta("DB.json")
	if err != nil {
		t.Fatalf("seed=%d: read DB manifest: %v", seed, err)
	}
	var m struct {
		Streams []string `json:"streams"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("seed=%d: parse DB manifest: %v", seed, err)
	}
	sort.Strings(m.Streams)
	if got := db.Streams(); !equalStrings(m.Streams, got) {
		t.Fatalf("seed=%d: on-disk directory %v != registered set %v", seed, m.Streams, got)
	}
}

func checkChurnQuantiles(t *testing.T, st *hsq.Stream, all []int64, name string, seed int64) {
	t.Helper()
	if len(all) == 0 {
		return
	}
	or := oracle.New(len(all))
	or.Add(all...)
	n := int64(len(all))
	// ε·N from history plus ε₂ over the live batch; use 2ε·N as a robust
	// combined bound.
	bound := int64(2*0.05*float64(n)) + 1
	for _, phi := range []float64{0.25, 0.5, 0.9} {
		v, _, err := st.Quantile(phi)
		if err != nil {
			t.Fatalf("seed=%d: %s quantile(%g): %v", seed, name, phi, err)
		}
		target := int64(phi * float64(n))
		if target < 1 {
			target = 1
		}
		if spanErr := or.SpanError(target, v); spanErr > bound {
			t.Errorf("seed=%d: %s quantile(%g) = %d: rank error %d > %d (N=%d)", seed, name, phi, v, spanErr, bound, n)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
