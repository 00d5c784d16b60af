package hsq

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/workload"
)

// engineOf returns the stream's hydrated engine: the internal tests' way in to
// the store and the device view. A DB without MaxHydratedStreams never
// evicts, so the engine stays the stream's for the test's lifetime.
func engineOf(t testing.TB, s *Stream) *engine {
	t.Helper()
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	if s.eng == nil {
		t.Fatalf("stream %q is not hydrated", s.name)
	}
	return s.eng
}

// loadEngine fills a one-stream DB with deterministic data: steps batches
// plus an in-flight stream.
func loadEngine(t testing.TB, cfg Options, steps, batch, stream int) *Stream {
	t.Helper()
	eng := OneStream(t, cfg)
	gen := workload.NewUniform(42)
	for s := 0; s < steps; s++ {
		eng.ObserveSlice(workload.Fill(gen, batch))
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	eng.ObserveSlice(workload.Fill(gen, stream))
	return eng
}

// TestMemBackendMatchesFile: the same data through the same algorithm must
// give identical answers regardless of where blocks live.
func TestMemBackendMatchesFile(t *testing.T) {
	fileEng := loadEngine(t, Options{Epsilon: 0.02, Kappa: 3, Dir: t.TempDir(), BlockSize: 1024}, 7, 3000, 1000)
	memEng := loadEngine(t, Options{Epsilon: 0.02, Kappa: 3, Backend: "mem", BlockSize: 1024}, 7, 3000, 1000)

	if fileEng.HistCount() != memEng.HistCount() || fileEng.PartitionCount() != memEng.PartitionCount() {
		t.Fatalf("layouts diverge: file %d/%d, mem %d/%d",
			fileEng.HistCount(), fileEng.PartitionCount(), memEng.HistCount(), memEng.PartitionCount())
	}
	for _, phi := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		vf, qf, err := fileEng.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		vm, qm, err := memEng.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		if vf != vm {
			t.Errorf("phi=%g: file=%d mem=%d", phi, vf, vm)
		}
		if qf.RandReads != qm.RandReads {
			t.Errorf("phi=%g: disk accesses diverge: file=%d mem=%d", phi, qf.RandReads, qm.RandReads)
		}
		qvf, err := QuantileQuick(fileEng, phi)
		if err != nil {
			t.Fatal(err)
		}
		qvm, err := QuantileQuick(memEng, phi)
		if err != nil {
			t.Fatal(err)
		}
		if qvf != qvm {
			t.Errorf("phi=%g quick: file=%d mem=%d", phi, qvf, qvm)
		}
	}
}

// TestConfigBackendValidation pins the Dir/Backend contract.
func TestConfigBackendValidation(t *testing.T) {
	if _, err := Open(Options{Epsilon: 0.1}); err == nil {
		t.Error("file backend without Dir: want error")
	}
	if _, err := Open(Options{Epsilon: 0.1, Backend: "mem"}); err != nil {
		t.Errorf("mem backend without Dir: %v", err)
	}
	if _, err := Open(Options{Epsilon: 0.1, Backend: "tape", Dir: t.TempDir()}); err == nil {
		t.Error("unknown backend: want error")
	}
	if _, err := Open(Options{Epsilon: 0.1, Backend: "mem", CacheBlocks: -1}); err == nil {
		t.Error("negative CacheBlocks: want error")
	}
}

// TestBlockCacheReducesQueryIO is the acceptance check for the cache: on
// the same store, a cached engine answers repeated accurate queries with
// strictly fewer backend random reads, and the absorbed probes show up as
// cache hits in QueryStats and IOStats.
func TestBlockCacheReducesQueryIO(t *testing.T) {
	phis := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	queryAll := func(eng *Stream) (randReads, cacheHits, skips int) {
		t.Helper()
		for round := 0; round < 3; round++ {
			for _, phi := range phis {
				_, qs, err := eng.Quantile(phi)
				if err != nil {
					t.Fatal(err)
				}
				randReads += qs.RandReads
				cacheHits += qs.CacheHits
				skips += qs.SkippedBlocks
			}
		}
		return
	}

	// Memoization off: repeated rounds must reach the block layer for the
	// cache comparison to mean anything.
	cold := loadEngine(t, Options{Epsilon: 0.02, Kappa: 3, Backend: "mem", BlockSize: 512, ProbeMemoEntries: -1}, 7, 3000, 1000)
	warm := loadEngine(t, Options{Epsilon: 0.02, Kappa: 3, Backend: "mem", BlockSize: 512, CacheBlocks: 4096, ProbeMemoEntries: -1}, 7, 3000, 1000)

	coldReads, coldHits, coldSkips := queryAll(cold)
	warmReads, warmHits, _ := queryAll(warm)

	if coldHits != 0 {
		t.Errorf("cache-off engine reported %d cache hits", coldHits)
	}
	if coldSkips == 0 {
		t.Error("no bisection step was resolved from columnar block-header bounds")
	}
	if warmReads >= coldReads {
		t.Errorf("cache did not reduce disk accesses: %d with cache, %d without", warmReads, coldReads)
	}
	if warmHits == 0 {
		t.Error("cached engine reported no cache hits")
	}
	if warmReads+warmHits < coldReads {
		// Hits + misses must cover at least the uncached probe count: the
		// cache only removes I/O, never probes.
		t.Errorf("probe accounting lost probes: %d reads + %d hits < %d uncached reads",
			warmReads, warmHits, coldReads)
	}

	io := warm.DiskStats()
	if io.CacheHits == 0 || io.CacheHits < uint64(warmHits) {
		t.Errorf("engine IOStats.CacheHits = %d, want >= %d", io.CacheHits, warmHits)
	}
}

// TestIOStatsSubClamps is the regression test for the uint64 underflow when
// counters are reset between snapshots.
func TestIOStatsSubClamps(t *testing.T) {
	a := IOStats{SeqReads: 1, RandReads: 2, CacheHits: 3}
	b := IOStats{SeqReads: 5, SeqWrites: 5, RandReads: 5, CacheHits: 5, CacheMisses: 5}
	if d := a.Sub(b); d != (IOStats{}) {
		t.Errorf("a.Sub(b) with b > a = %+v, want all-zero", d)
	}
	d := b.Sub(a)
	want := IOStats{SeqReads: 4, SeqWrites: 5, RandReads: 3, CacheHits: 2, CacheMisses: 5}
	if d != want {
		t.Errorf("b.Sub(a) = %+v, want %+v", d, want)
	}
}

// TestMemEngineLifecycle: a mem engine supports the full API surface that
// does not require durability — windows, ranks, checkpoint, destroy.
func TestMemEngineLifecycle(t *testing.T) {
	eng := loadEngine(t, Options{Epsilon: 0.05, Kappa: 2, Backend: "mem", BlockSize: 512}, 5, 1000, 500)
	if _, _, err := eng.Rank(0); err != nil {
		t.Fatal(err)
	}
	wins := eng.AvailableWindows()
	if len(wins) == 0 {
		t.Fatal("no windows on mem engine")
	}
	if _, _, err := Query1(eng, Request{Phis: []float64{0.5}, Window: wins[0]}); err != nil {
		t.Fatal(err)
	}
	// Checkpoint writes the manifest to the mem backend (in-process only).
	if err := eng.DB().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.DB().DropStream(eng.Name()); err != nil {
		t.Fatal(err)
	}
}

// TestRawPartitionsStillServe: a stream's device is columnar, and a columnar
// device reads columnar version 2 only. A warehouse whose partitions an
// earlier release wrote as raw (format-0) files still registers its stream
// at Open, but the stream's first hydration refuses it, naming a raw
// partition, instead of reading the files in a format they were not written
// in.
func TestRawPartitionsStillServe(t *testing.T) {
	const eps, kappa = 0.02, 3
	cfg, err := (&Options{Epsilon: eps, Kappa: kappa, Dir: t.TempDir(), BlockSize: 1024}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewNormal(9)

	// The old release: a manager left at its raw default under the stream's
	// own store configuration and κ level-0 partitions (one short of a
	// merge); the committed manifest registers the stream.
	b, err := disk.OpenBackend(cfg.Backend, cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	root, err := disk.NewManagerOn(b, cfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	ns := streamNamespacePrefix + "/" + OneStreamName
	old, err := root.Namespace(ns)
	if err != nil {
		t.Fatal(err)
	}
	store, err := partition.NewStore(old, storeConfig(cfg, eps/2, ns))
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= kappa; step++ {
		if _, err := store.AddBatch(workload.Fill(gen, 2000), step); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Commit(manifestName); err != nil {
		t.Fatal(err)
	}

	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	if got := db.Streams(); !slices.Equal(got, []string{OneStreamName}) {
		t.Fatalf("registered streams %v, want [%s]", got, OneStreamName)
	}
	_, err = db.Stream(OneStreamName)
	named := false
	for _, sum := range store.Entries() {
		named = named || (err != nil && strings.Contains(err.Error(), ns+"/"+sum.Part.Name()))
	}
	if !named || !strings.Contains(err.Error(), "a raw file") {
		t.Fatalf("first hydration over raw partitions = %v; want a refusal naming one as a raw file", err)
	}
	t.Logf("refused: %v", err)
}

// TestReopenWithSmallerBlockSizeServes: a warehouse written at the default
// 100 KB block size and reopened with 4 KB blocks answers accurate queries
// from the old files — whose blocks are as long as they were written, not as
// the device now says — then seals one more step, merges old and new
// geometry together and still agrees with the oracle.
func TestReopenWithSmallerBlockSizeServes(t *testing.T) {
	const eps, kappa = 0.02, 3
	opts := Options{Epsilon: eps, Kappa: kappa, Dir: t.TempDir(), CacheBlocks: 8}
	gen := workload.NewNormal(22)
	orc := oracle.New(0)

	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := db.Stream(OneStreamName)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= kappa; step++ { // κ level-0 partitions, one short of a merge
		batch := workload.Fill(gen, 5000)
		orc.Add(batch...)
		first.ObserveSlice(batch)
		if _, err := first.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	opts.BlockSize = 4096
	eng := OneStream(t, opts)
	if got := eng.PartitionCount(); got != kappa {
		t.Fatalf("reopened %d partitions, want %d", got, kappa)
	}
	if _, qs, err := eng.Quantile(0.5); err != nil || qs.RandReads == 0 {
		t.Fatalf("Quantile(0.5) after the reopen: err %v, %d block reads; it must read the old files", err, qs.RandReads)
	}
	checkAccuracy(t, eng, orc, eps)

	batch := workload.Fill(gen, 5000)
	orc.Add(batch...)
	eng.ObserveSlice(batch)
	us, err := eng.EndStep()
	if err != nil {
		t.Fatal(err)
	}
	if us.Merges == 0 {
		t.Fatal("no level merge ran; the mixed-geometry merge went untested")
	}
	tail := workload.Fill(gen, 500)
	orc.Add(tail...)
	eng.ObserveSlice(tail)
	checkAccuracy(t, eng, orc, eps)
}
