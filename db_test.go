package hsq_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/workload"
)

// memDB opens a mem-backed DB with a small block size so tests exercise
// multi-block paths.
func memDB(t testing.TB, cacheBlocks int) *hsq.DB {
	t.Helper()
	db, err := hsq.Open(hsq.Options{
		Epsilon:     0.02,
		Kappa:       4,
		Backend:     "mem",
		BlockSize:   1024, // 128 elements per block
		CacheBlocks: cacheBlocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// loadStream feeds steps batches of batch elements into st from a seeded
// generator.
func loadStream(t testing.TB, st *hsq.Stream, seed int64, steps, batch int) {
	t.Helper()
	gen := workload.NewNormal(seed)
	for s := 0; s < steps; s++ {
		st.ObserveSlice(workload.Fill(gen, batch))
		if _, err := st.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDBStreamsIndependent(t *testing.T) {
	db := memDB(t, 0)
	lat, err := db.Stream("api.latency")
	if err != nil {
		t.Fatal(err)
	}
	size, err := db.Stream("api.size")
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint ranges: latency 1..1000, size 100001..101000.
	for i := int64(1); i <= 1000; i++ {
		lat.Observe(i)
		size.Observe(100000 + i)
	}
	if _, err := lat.EndStep(); err != nil {
		t.Fatal(err)
	}
	if _, err := size.EndStep(); err != nil {
		t.Fatal(err)
	}
	if v, _, err := lat.Quantile(0.5); err != nil || v != 500 {
		t.Errorf("latency median = %d, %v", v, err)
	}
	if v, _, err := size.Quantile(0.5); err != nil || v != 100500 {
		t.Errorf("size median = %d, %v", v, err)
	}
	// Same *Stream on repeat lookup; directory sorted.
	again, err := db.Stream("api.latency")
	if err != nil || again != lat {
		t.Errorf("Stream returned a different handle: %v", err)
	}
	if got := db.Streams(); len(got) != 2 || got[0] != "api.latency" || got[1] != "api.size" {
		t.Errorf("Streams = %v", got)
	}
	// Invalid names rejected.
	for _, bad := range []string{"", "a/b", "..", "sp ace"} {
		if _, err := db.Stream(bad); err == nil {
			t.Errorf("Stream(%q): want error", bad)
		}
	}
}

// TestDBConcurrentStreams hammers four streams with parallel
// Observe/EndStep/Quantile; run under -race this validates the concurrent
// multi-stream surface.
func TestDBConcurrentStreams(t *testing.T) {
	db := memDB(t, 128)
	const streams = 4
	var wg sync.WaitGroup
	errc := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := db.Stream(fmt.Sprintf("s%d", i))
			if err != nil {
				errc <- err
				return
			}
			gen := workload.NewNormal(int64(i + 1))
			for step := 0; step < 5; step++ {
				st.ObserveSlice(workload.Fill(gen, 2000))
				if _, err := st.EndStep(); err != nil {
					errc <- err
					return
				}
				for _, phi := range []float64{0.1, 0.5, 0.9} {
					if _, _, err := st.Quantile(phi); err != nil {
						errc <- err
						return
					}
					if _, err := hsq.QuantileQuick(st, phi); err != nil {
						errc <- err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := len(db.Streams()); got != streams {
		t.Errorf("streams = %d, want %d", got, streams)
	}
	// Aggregate invariant still holds after concurrent traffic.
	var sum hsq.IOStats
	for _, name := range db.Streams() {
		st, _ := db.Lookup(name)
		sum = sum.Add(st.DiskStats())
	}
	if agg := db.DiskStats(); sum != agg {
		t.Errorf("per-stream sum %+v != aggregate %+v", sum, agg)
	}
}

func TestDBCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	opts := hsq.Options{Epsilon: 0.05, Kappa: 3, Dir: dir, BlockSize: 1024}
	db, err := hsq.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.Stream("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Stream("b")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 600; i++ {
		a.Observe(i)
		b.Observe(-i)
	}
	if _, err := a.EndStep(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EndStep(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // Close checkpoints every stream
		t.Fatal(err)
	}
	// Closed DB refuses further work.
	if _, err := db.Stream("c"); !errors.Is(err, hsq.ErrClosed) {
		t.Errorf("Stream on closed DB: %v", err)
	}
	if _, _, err := a.Quantile(0.5); !errors.Is(err, hsq.ErrClosed) {
		t.Errorf("Quantile on closed stream: %v", err)
	}

	re, err := hsq.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Streams(); len(got) != 2 {
		t.Fatalf("reopened streams = %v", got)
	}
	ra, err := re.Stream("a")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := re.Stream("b")
	if err != nil {
		t.Fatal(err)
	}
	if v, _, err := ra.Quantile(0.5); err != nil || v != 300 {
		t.Errorf("reopened a median = %d, %v", v, err)
	}
	if v, _, err := rb.Quantile(0.5); err != nil || v != -301 {
		t.Errorf("reopened b median = %d, %v", v, err)
	}
	// DropStream removes state; restart no longer sees it.
	if err := re.DropStream("b"); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := hsq.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.Streams(); len(got) != 1 || got[0] != "a" {
		t.Errorf("streams after drop+restart = %v", got)
	}
}

// TestStreamNameLimit bounds a stream name to one path component on every
// backend: 256 bytes are refused by Stream and RegisterStreams before
// anything is registered, and a 255-byte name works end to end on the file
// backend, through a reopen.
func TestStreamNameLimit(t *testing.T) {
	opts := hsq.Options{Epsilon: 0.05, Dir: t.TempDir(), BlockSize: 1024}
	db, err := hsq.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tooLong := strings.Repeat("n", 256)
	if _, err := db.Stream(tooLong); err == nil {
		t.Error("Stream accepted a 256-byte name")
	}
	if err := db.RegisterStreams("ok", tooLong); err == nil {
		t.Error("RegisterStreams accepted a 256-byte name")
	}
	if names := db.Streams(); len(names) != 0 {
		t.Errorf("registered %v after refusals", names)
	}
	longest := strings.Repeat("m", 255)
	st, err := db.Stream(longest)
	if err != nil {
		t.Fatal(err)
	}
	st.ObserveSlice([]int64{5, 1, 4, 2, 3})
	if _, err := st.EndStep(); err != nil {
		t.Fatalf("EndStep on a 255-byte name: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db, err = hsq.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	st, ok := db.Lookup(longest)
	if !ok {
		t.Fatal("255-byte stream lost across reopen")
	}
	if v, _, err := st.Quantile(0.5); err != nil || v != 3 || st.TotalCount() != 5 {
		t.Errorf("reopened: median %d (%v), TotalCount %d; want 3, 5", v, err, st.TotalCount())
	}
}

// TestOpenRejectsLegacyLayout: three layouts of earlier releases are
// refused, never misread. A root-level single-stream warehouse (root
// MANIFEST.json and part files — the layout releases with a standalone
// engine wrote) must not be silently shadowed by an empty DB, a root
// DB.json stream directory (which releases before the per-stream manifests
// registered streams on their own wrote) must not be ignored, and a stream
// manifest whose pending section lists raw spills (the layout of releases
// that spilled every step before installing it) must not hydrate. Nothing
// in the tree writes these layouts any more, so the fixture builds each by
// hand from this release's files. Open (or, for the pending section, the
// stream's hydration) refuses it with the one upgrade rule, re-ingesting
// with this release, and leaves every file as it was.
func TestOpenRejectsLegacyLayout(t *testing.T) {
	ns := filepath.Join("streams", hsq.OneStreamName)
	// closedStream returns the options of a directory holding one stream of
	// 1 000 values, closed.
	closedStream := func() hsq.Options {
		opts := hsq.Options{Epsilon: 0.05, Kappa: 3, Dir: t.TempDir()}
		eng := hsq.OneStream(t, opts)
		for i := int64(1); i <= 1000; i++ {
			eng.Observe(i)
		}
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
		if err := eng.DB().Close(); err != nil {
			t.Fatal(err)
		}
		return opts
	}
	// files reads every file under dir, by path.
	files := func(dir string) map[string]string {
		out := make(map[string]string)
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			out[path] = string(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// refused opens a DB over the layout and runs use on it; the error must
	// carry the upgrade rule and every word of want, and no file may change.
	refused := func(name string, opts hsq.Options, use func(*hsq.DB) error, want ...string) {
		t.Helper()
		before := files(opts.Dir)
		db, err := hsq.Open(opts)
		if err == nil {
			err = use(db)
			if cerr := db.Close(); cerr != nil {
				t.Fatal(cerr)
			}
		}
		if err == nil {
			t.Errorf("%s: opened", name)
			return
		}
		for _, w := range append(want, "re-ingest", "with this release") {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: refusal %q does not say %q", name, err, w)
			}
		}
		if after := files(opts.Dir); !maps.Equal(after, before) {
			t.Errorf("%s: the refused layout was touched: %d files before, %d after", name, len(before), len(after))
		}
	}
	opened := func(*hsq.DB) error { return nil }

	// The root warehouse: the stream's part files and manifest at the root,
	// the manifest without a namespace.
	opts := closedStream()
	parts, err := filepath.Glob(filepath.Join(opts.Dir, ns, "part-*.dat"))
	if err != nil || len(parts) == 0 {
		t.Fatalf("no partition files: %v", err)
	}
	for _, p := range parts {
		if err := os.Rename(p, filepath.Join(opts.Dir, filepath.Base(p))); err != nil {
			t.Fatal(err)
		}
	}
	var m map[string]any
	raw, err := os.ReadFile(filepath.Join(opts.Dir, ns, "MANIFEST.json"))
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	if err != nil {
		t.Fatal(err)
	}
	delete(m, "namespace")
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(opts.Dir, "MANIFEST.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(opts.Dir, "streams")); err != nil {
		t.Fatal(err)
	}
	refused("root warehouse", opts, opened, "single-stream warehouse", "MANIFEST.json")

	// The DB.json layout: the directory the stream's manifest now is, kept a
	// second time at the root.
	opts = closedStream()
	if err := os.WriteFile(filepath.Join(opts.Dir, "DB.json"), []byte(`{"version":1,"streams":["`+hsq.OneStreamName+`"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	refused("DB.json", opts, opened, "DB.json")

	// A manifest whose pending section lists a sealed step as a raw spill:
	// the stream is refused by name when it hydrates.
	opts = closedStream()
	manifest := filepath.Join(opts.Dir, ns, "MANIFEST.json")
	raw, err = os.ReadFile(manifest)
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	if err != nil {
		t.Fatal(err)
	}
	m["pending"] = []map[string]any{{"id": 99, "name": "batch-raw-000099.dat", "count": 10, "step": 2}}
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	for file, data := range map[string][]byte{manifest: raw, filepath.Join(opts.Dir, ns, "batch-raw-000099.dat"): make([]byte, 80)} {
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	refused("pending section", opts, func(db *hsq.DB) error {
		st, ok := db.Lookup(hsq.OneStreamName)
		if !ok {
			return fmt.Errorf("%s is not registered", hsq.OneStreamName)
		}
		_, err := st.Query(context.Background(), hsq.Request{Phis: []float64{0.5}})
		return err
	}, strconv.Quote(hsq.OneStreamName), "raw spills")
}

func TestEngineClose(t *testing.T) {
	dir := t.TempDir()
	cfg := hsq.Options{Epsilon: 0.05, Kappa: 3, Dir: dir, BlockSize: 1024}
	eng := hsq.OneStream(t, cfg)
	for i := int64(1); i <= 500; i++ {
		eng.Observe(i)
	}
	if _, err := eng.EndStep(); err != nil {
		t.Fatal(err)
	}
	if err := eng.DB().Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.DB().Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := eng.EndStep(); !errors.Is(err, hsq.ErrClosed) {
		t.Errorf("EndStep after Close: %v", err)
	}
	if _, _, err := eng.Quantile(0.5); !errors.Is(err, hsq.ErrClosed) {
		t.Errorf("Quantile after Close: %v", err)
	}
	if err := eng.DB().Checkpoint(); !errors.Is(err, hsq.ErrClosed) {
		t.Errorf("Checkpoint after Close: %v", err)
	}
	// Observe is a documented no-op on a closed DB; ObserveCtx reports.
	eng.Observe(42)
	if got := eng.StreamCount(); got != 0 {
		t.Errorf("Observe after Close buffered %d elements", got)
	}
	if err := eng.ObserveCtx(context.Background(), 42); !errors.Is(err, hsq.ErrClosed) {
		t.Errorf("ObserveCtx after Close: %v", err)
	}
	// Close checkpointed: Open resumes.
	re := hsq.OneStream(t, cfg)
	if v, _, err := re.Quantile(0.5); err != nil || v != 250 {
		t.Errorf("resumed median = %d, %v", v, err)
	}
	if err := re.DB().Close(); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesOptsBudget(t *testing.T) {
	// Memoization off: the budgeted re-query must repeat the disk search
	// for the budget to bite.
	eng := hsq.OneStream(t, hsq.Options{
		Epsilon: 0.02, Kappa: 4, Backend: "mem", BlockSize: 1024,
		ProbeMemoEntries: -1,
	})
	gen := workload.NewNormal(7)
	for s := 0; s < 6; s++ {
		eng.ObserveSlice(workload.Fill(gen, 5000))
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	// Keep a live stream so accurate queries must do real bisection work.
	eng.ObserveSlice(workload.Fill(gen, 5000))

	phis := []float64{0.05, 0.25, 0.5, 0.75, 0.95}
	fa, err := eng.Query(context.Background(), hsq.Request{Phis: phis})
	if err != nil {
		t.Fatal(err)
	}
	free := fa.Stats
	if free.Truncated {
		t.Fatal("unbudgeted batch reported Truncated")
	}
	if free.RandReads == 0 {
		t.Skip("no random reads without budget; nothing to constrain")
	}
	budget := free.RandReads / 2
	if budget == 0 {
		budget = 1
	}
	ba, err := eng.Query(context.Background(), hsq.Request{Phis: phis, MaxReads: budget})
	if err != nil {
		t.Fatal(err)
	}
	vals, qs := ba.Values, ba.Stats
	if len(vals) != len(phis) {
		t.Fatalf("got %d values", len(vals))
	}
	if !qs.Truncated {
		t.Errorf("half budget: want Truncated (reads=%d budget=%d)", qs.RandReads, budget)
	}
	if qs.RandReads > budget {
		// The last accurate query may overshoot by at most one probe's
		// block reads; a whole extra query's worth means the budget leaked.
		if qs.RandReads > budget+free.RandReads/len(phis) {
			t.Errorf("budget %d but spent %d reads", budget, qs.RandReads)
		}
	}
	// Budgeted answers still honor the quick-query error bound ~1.5·ε·N.
	n := float64(eng.TotalCount())
	for i, phi := range phis {
		r, _, err := eng.Rank(vals[i])
		if err != nil {
			t.Fatal(err)
		}
		if diff := float64(r) - phi*n; diff > 2.5*0.02*n || diff < -2.5*0.02*n {
			t.Errorf("phi=%g: rank off by %.0f (n=%.0f)", phi, diff, n)
		}
	}
}

func TestQuantileCtxCancel(t *testing.T) {
	eng := hsq.OneStream(t, hsq.Options{
		Epsilon: 0.02, Kappa: 4, Backend: "mem", BlockSize: 1024,
	})
	gen := workload.NewNormal(11)
	eng.ObserveSlice(workload.Fill(gen, 5000))
	if _, err := eng.EndStep(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Query(ctx, hsq.Request{Phis: []float64{0.5}}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Query: %v", err)
	}
	if err := eng.ObserveCtx(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ObserveCtx: %v", err)
	}
	if _, err := eng.EndStepCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled EndStepCtx: %v", err)
	}
	// A live context works.
	if _, err := eng.Query(context.Background(), hsq.Request{Phis: []float64{0.5}}); err != nil {
		t.Errorf("live Query: %v", err)
	}
}
