package hsq_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// TestOpenRejectsLegacyLayout: a root-level single-stream warehouse (root
// MANIFEST.json and part files — the layout releases with a standalone
// engine wrote) must not be silently shadowed by an empty DB, nor may a
// root DB.json stream directory (which releases before the per-stream
// manifests registered streams on their own wrote) be ignored. Nothing in
// the tree writes either layout any more, so the fixture builds each by
// hand; Open refuses it, leaves it untouched, and the adoption recipe its
// error spells out brings the history back.
func TestOpenRejectsLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	opts := hsq.Options{Epsilon: 0.05, Kappa: 3, Dir: dir}
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
	// move carries the part files and the manifest between the stream's
	// namespace and the root, rewriting the manifest's "namespace".
	ns := filepath.Join("streams", hsq.OneStreamName)
	move := func(from, to, namespace string) {
		t.Helper()
		parts, err := filepath.Glob(filepath.Join(dir, from, "part-*.dat"))
		if err != nil || len(parts) == 0 {
			t.Fatalf("no partition files under %q: %v", from, err)
		}
		for _, p := range parts {
			if err := os.Rename(p, filepath.Join(dir, to, filepath.Base(p))); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := os.ReadFile(filepath.Join(dir, from, "MANIFEST.json"))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "namespace")
		if namespace != "" {
			m["namespace"] = namespace
		}
		if raw, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, to, "MANIFEST.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, from, "MANIFEST.json")); err != nil {
			t.Fatal(err)
		}
	}
	move(ns, "", "")
	for _, gone := range []string{"DB.json", "streams"} {
		if err := os.RemoveAll(filepath.Join(dir, gone)); err != nil {
			t.Fatal(err)
		}
	}

	_, err := hsq.Open(opts)
	if err == nil {
		t.Fatal("Open over a legacy single-stream warehouse: want error")
	}
	if msg := err.Error(); !strings.Contains(msg, "streams/<name>/") || !strings.Contains(msg, "namespace") || strings.Contains(msg, "OpenEngine") {
		t.Errorf("refusal does not carry the by-hand adoption recipe: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err != nil {
		t.Errorf("the refused warehouse was touched: %v", err)
	}

	// The recipe, by hand: files under streams/<name>/, the manifest's
	// namespace set to that path.
	if err := os.MkdirAll(filepath.Join(dir, ns), 0o755); err != nil {
		t.Fatal(err)
	}
	move("", ns, filepath.ToSlash(ns))
	adopted := hsq.OneStream(t, opts)
	if got := adopted.HistCount(); got != 1000 {
		t.Errorf("adopted HistCount = %d, want 1000", got)
	}
	if v, _, err := adopted.Quantile(0.5); err != nil || v != 500 {
		t.Errorf("adopted median = %d, %v", v, err)
	}
	if err := adopted.DB().Close(); err != nil {
		t.Fatal(err)
	}

	// The DB.json layout: the directory the stream's manifest now is, kept a
	// second time at the root, plus a namespace it does not list (debris the
	// releases that wrote it collected at Open).
	dbJSON := filepath.Join(dir, "DB.json")
	if err := os.WriteFile(dbJSON, []byte(`{"version":1,"streams":["`+hsq.OneStreamName+`"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ghost := filepath.Join(dir, "streams", "ghost")
	if err := os.MkdirAll(ghost, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ghost, "MANIFEST.json"), []byte(`{"version":1,"namespace":"streams/ghost","kappa":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = hsq.Open(opts)
	if err == nil {
		t.Fatal("Open over a DB.json stream directory: want error")
	}
	if msg := err.Error(); !strings.Contains(msg, "DB.json") || !strings.Contains(msg, "streams/<name>/") || !strings.Contains(msg, "RegisterStreams") {
		t.Errorf("refusal does not carry the by-hand recipe: %v", err)
	}
	if _, err := os.Stat(dbJSON); err != nil {
		t.Errorf("the refused directory was touched: %v", err)
	}
	// The recipe: delete the namespaces DB.json does not list, then DB.json.
	for _, gone := range []string{ghost, dbJSON} {
		if err := os.RemoveAll(gone); err != nil {
			t.Fatal(err)
		}
	}
	db, err := hsq.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	if got := db.Streams(); len(got) != 1 || got[0] != hsq.OneStreamName {
		t.Fatalf("adopted directory %v, want [%s]", got, hsq.OneStreamName)
	}
	st, _ := db.Lookup(hsq.OneStreamName)
	if got := st.HistCount(); got != 1000 {
		t.Errorf("adopted HistCount = %d, want 1000", got)
	}
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
