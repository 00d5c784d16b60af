package hsq_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/oracle"
	"repro/internal/query"
)

// qlFixture is a DB with a deterministic multi-stream history plus the
// per-(stream, step) value log the oracles are built from.
type qlFixture struct {
	db     *hsq.DB
	names  []string
	steps  int
	values map[string][][]int64 // name → step (0-based) → values
}

// newQLFixture feeds `steps` steps into streams svc.<seg>.lat with seeded
// random values. Kappa is set high so every step stays its own partition
// and every step range aligns — the merge-coarsening error path has its
// own test.
func newQLFixture(t *testing.T, steps int) *qlFixture {
	t.Helper()
	db, err := hsq.Open(hsq.Options{Epsilon: 0.1, Kappa: 100, Backend: "mem", BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() }) //nolint:errcheck
	f := &qlFixture{
		db:     db,
		names:  []string{"svc.east.lat", "svc.east.err", "svc.west.lat", "other.east.lat"},
		steps:  steps,
		values: make(map[string][][]int64),
	}
	rng := rand.New(rand.NewSource(42))
	for _, name := range f.names {
		st, err := db.Stream(name)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			n := 200 + rng.Intn(200)
			vs := make([]int64, n)
			for i := range vs {
				vs[i] = rng.Int63n(100_000) - 50_000
			}
			st.ObserveSlice(vs)
			if _, err := st.EndStep(); err != nil {
				t.Fatal(err)
			}
			f.values[name] = append(f.values[name], vs)
		}
	}
	return f
}

// oracleFor builds the oracle over the union of the named streams'
// values in steps (from, to], both 1-based; to == 0 means the full
// history including any live values (none in the fixture).
func (f *qlFixture) oracleFor(names []string, from, to int) *oracle.Oracle {
	if to == 0 {
		from, to = 0, f.steps
	}
	o := oracle.New(0)
	for _, name := range names {
		for s := from; s < to; s++ {
			o.Add(f.values[name][s]...)
		}
	}
	return o
}

// checkWindow verifies one window result against the oracle scoped to
// the same step range: the count must be exact and every quick answer
// within the result's own advertised rank error.
func checkWindow(t *testing.T, o *oracle.Oracle, wr query.WindowResult, phis []float64, label string) {
	t.Helper()
	if wr.N != o.Count() {
		t.Fatalf("%s: N = %d, oracle has %d", label, wr.N, o.Count())
	}
	if wr.N == 0 {
		return
	}
	for i, phi := range phis {
		r := max(int64(phi*float64(wr.N)), 1)
		if got := o.SpanError(r, wr.Values[i]); got > wr.RankError {
			t.Errorf("%s: phi=%.2f answer %d off by %d ranks, bound %d",
				label, phi, wr.Values[i], got, wr.RankError)
		}
	}
}

// TestQueryDifferentialVsOracle cross-checks every query operator against
// brute-force oracles. Every answer's rank error must stay within the
// result's own composed ⌈1.5·ε·N⌉ bound and every count must be exact. The
// subtests sit under the name of the one maintenance schedule left, "sync",
// so their ids carry over.
func TestQueryDifferentialVsOracle(t *testing.T) {
	phis := []float64{0.01, 0.25, 0.5, 0.9, 0.99}
	t.Run("sync", func(t *testing.T) {
		const steps = 8
		f := newQLFixture(t, steps)

		t.Run("merge-explicit", func(t *testing.T) {
			// The merged plan only merges summaries: it costs no backend
			// random read where one accurate poll per stream pays some.
			before := f.db.DiskStats().RandReads
			for _, name := range f.names {
				st, ok := f.db.Lookup(name)
				if !ok {
					t.Fatalf("stream %s missing", name)
				}
				if _, _, err := st.Quantiles(phis); err != nil {
					t.Fatal(err)
				}
			}
			polled := f.db.DiskStats().RandReads
			if polled == before {
				t.Fatal("accurate polls cost no backend reads; the comparison is vacuous")
			}
			res, err := f.db.Query().Streams(f.names...).Phis(phis...).Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := f.db.DiskStats().RandReads; got != polled {
				t.Errorf("merged plan cost %d backend random reads, want 0", got-polled)
			}
			checkWindow(t, f.oracleFor(f.names, 0, 0), res.Groups[0].Windows[0], phis, "all streams")
		})

		t.Run("glob", func(t *testing.T) {
			res, err := f.db.Query().Match("svc.*.lat").Phis(phis...).Run()
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"svc.east.lat", "svc.west.lat"}
			if fmt.Sprint(res.Streams) != fmt.Sprint(want) {
				t.Fatalf("glob selected %v, want %v", res.Streams, want)
			}
			checkWindow(t, f.oracleFor(want, 0, 0), res.Groups[0].Windows[0], phis, "glob")
		})

		t.Run("group-by", func(t *testing.T) {
			res, err := f.db.Query().Match("svc.**").GroupBy(2).Phis(phis...).Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Groups) != 2 {
				t.Fatalf("groups = %d, want 2 (east, west)", len(res.Groups))
			}
			for _, g := range res.Groups {
				var members []string
				for _, n := range f.names {
					if strings.HasPrefix(n, "svc.") && strings.Split(n, ".")[1] == g.Key {
						members = append(members, n)
					}
				}
				sort.Strings(members)
				if fmt.Sprint(g.Streams) != fmt.Sprint(members) {
					t.Fatalf("group %q members %v, want %v", g.Key, g.Streams, members)
				}
				checkWindow(t, f.oracleFor(members, 0, 0), g.Windows[0], phis, "group "+g.Key)
			}
		})

		t.Run("windows", func(t *testing.T) {
			// Three sliding 2-step windows, each slid 1 step further back:
			// (5,7], (4,6], (3,5] … relative to the 8-step history.
			res, err := f.db.Query().Streams("svc.east.lat", "svc.west.lat").
				Windows(2, 1, 3).Phis(phis...).Run()
			if err != nil {
				t.Fatal(err)
			}
			ws := res.Groups[0].Windows
			if len(ws) != 3 {
				t.Fatalf("windows = %d, want 3", len(ws))
			}
			for i, wr := range ws {
				end := steps - i // slide 1
				o := f.oracleFor(res.Streams, end-2, end)
				checkWindow(t, o, wr, phis, fmt.Sprintf("window back=%d", i))
			}
		})

		t.Run("as-of", func(t *testing.T) {
			for _, asof := range []int{1, 3, steps} {
				res, err := f.db.Query().Match("svc.east.*").AsOfStep(asof).Phis(phis...).Run()
				if err != nil {
					t.Fatal(err)
				}
				o := f.oracleFor(res.Streams, 0, asof)
				checkWindow(t, o, res.Groups[0].Windows[0], phis, fmt.Sprintf("as-of %d", asof))
			}
		})

		t.Run("as-of-windowed", func(t *testing.T) {
			// A window ending at a past step: steps (2,5] as of step 5.
			res, err := f.db.Query().Streams("svc.west.lat").
				AsOfStep(5).Window(3).Phis(phis...).Run()
			if err != nil {
				t.Fatal(err)
			}
			o := f.oracleFor(res.Streams, 2, 5)
			checkWindow(t, o, res.Groups[0].Windows[0], phis, "as-of window")
		})

		t.Run("live-buffer", func(t *testing.T) {
			// Un-sealed values are part of full-history answers.
			st, err := f.db.Stream("svc.east.lat")
			if err != nil {
				t.Fatal(err)
			}
			live := []int64{1, 2, 3, 4, 5}
			st.ObserveSlice(live)
			res, err := f.db.Query().Streams("svc.east.lat").Phis(phis...).Run()
			if err != nil {
				t.Fatal(err)
			}
			o := f.oracleFor([]string{"svc.east.lat"}, 0, 0)
			o.Add(live...)
			checkWindow(t, o, res.Groups[0].Windows[0], phis, "with live buffer")
			// …but excluded from as-of answers, which pin a sealed prefix.
			res, err = f.db.Query().Streams("svc.east.lat").AsOfStep(steps).Phis(phis...).Run()
			if err != nil {
				t.Fatal(err)
			}
			checkWindow(t, f.oracleFor([]string{"svc.east.lat"}, 0, steps),
				res.Groups[0].Windows[0], phis, "as-of excludes live")
		})
	})
}

// TestQueryErrors pins the executor's refusals: out-of-range scopes,
// unknown streams, bad group segments.
func TestQueryErrors(t *testing.T) {
	f := newQLFixture(t, 3)
	for name, run := range map[string]func() (*query.Result, error){
		"empty plan":     func() (*query.Result, error) { return f.db.Query().Phis(0.5).Run() },
		"no phis":        func() (*query.Result, error) { return f.db.Query().Streams("svc.east.lat").Run() },
		"unknown stream": func() (*query.Result, error) { return f.db.Query().Streams("nope").Phis(0.5).Run() },
		"as-of past end": func() (*query.Result, error) {
			return f.db.Query().Streams("svc.east.lat").AsOfStep(99).Phis(0.5).Run()
		},
		"window past start": func() (*query.Result, error) { return f.db.Query().Streams("svc.east.lat").Window(99).Phis(0.5).Run() },
		"group segment":     func() (*query.Result, error) { return f.db.Query().Streams("svc.east.lat").GroupBy(9).Phis(0.5).Run() },
		"bad phi":           func() (*query.Result, error) { return f.db.Query().Streams("svc.east.lat").Phis(2).Run() },
	} {
		if _, err := run(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestQueryColdStreamsNoHydration pins the tentpole's directory promise:
// a glob query over a mostly-evicted fleet answers from the sealed
// summary sidecars without hydrating a single cold stream.
func TestQueryColdStreamsNoHydration(t *testing.T) {
	db, err := hsq.Open(hsq.Options{
		Epsilon: 0.1, Kappa: 100, Backend: "mem", BlockSize: 512,
		MaxHydratedStreams: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck

	const streams, steps = 6, 3
	oracles := make(map[string]*oracle.Oracle)
	rng := rand.New(rand.NewSource(7))
	var all *oracle.Oracle = oracle.New(0)
	for i := 0; i < streams; i++ {
		name := fmt.Sprintf("fleet.n%d.lat", i)
		st, err := db.Stream(name)
		if err != nil {
			t.Fatal(err)
		}
		oracles[name] = oracle.New(0)
		for s := 0; s < steps; s++ {
			for k := 0; k < 300; k++ {
				v := rng.Int63n(10_000)
				st.Observe(v)
				oracles[name].Add(v)
				all.Add(v)
			}
			if _, err := st.EndStep(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ds := db.DirectoryStats()
	if ds.Hydrated > 2 || ds.Evictions == 0 {
		t.Fatalf("fixture did not churn: %+v", ds)
	}
	before := ds.Hydrations

	res, err := db.Query().Match("fleet.**").GroupBy(2).Phis(0.5, 0.99).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Streams) != streams || len(res.Groups) != streams {
		t.Fatalf("selected %d streams in %d groups, want %d/%d",
			len(res.Streams), len(res.Groups), streams, streams)
	}
	for _, g := range res.Groups {
		o := oracles[g.Streams[0]]
		checkWindow(t, o, g.Windows[0], []float64{0.5, 0.99}, "group "+g.Key)
	}
	if after := db.DirectoryStats().Hydrations; after != before {
		t.Fatalf("glob query hydrated cold streams: %d → %d hydrations", before, after)
	}

	// Scoped queries over cold streams stay cold too: sidecars carry the
	// per-partition layout.
	res, err = db.Query().Match("fleet.**").Window(1).Phis(0.5).Run()
	if err != nil {
		t.Fatal(err)
	}
	if after := db.DirectoryStats().Hydrations; after != before {
		t.Fatalf("windowed glob query hydrated cold streams: %d → %d", before, after)
	}
	// A merged full query across all streams answers from the same mix.
	full, err := db.Query().Match("fleet.**").Phis(0.5).Run()
	if err != nil {
		t.Fatal(err)
	}
	checkWindow(t, all, full.Groups[0].Windows[0], []float64{0.5}, "merged fleet")
	if ds := db.DirectoryStats(); ds.SummaryFallbacks != 0 {
		t.Fatalf("a fresh sidecar could not answer %d cold reads: %+v", ds.SummaryFallbacks, ds)
	}
}

// TestQueryAlignmentError pins the step-boundary refusal: once partition
// merges coarsen history, a window that no longer aligns reports the
// available boundaries instead of silently answering something else.
func TestQueryAlignmentError(t *testing.T) {
	db, err := hsq.Open(hsq.Options{Epsilon: 0.1, Kappa: 2, Backend: "mem", BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	st, err := db.Stream("s.a")
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		for v := int64(0); v < 300; v++ {
			st.Observe(v)
		}
		if _, err := st.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	// Kappa 2 merged aggressively: some as-of points inside merged
	// partitions must refuse with the alignment error.
	var refused bool
	for asof := 1; asof < 8; asof++ {
		_, err := db.Query().Streams("s.a").AsOfStep(asof).Phis(0.5).Run()
		if err != nil {
			if !strings.Contains(err.Error(), "align") {
				t.Fatalf("as-of %d: unexpected error: %v", asof, err)
			}
			refused = true
		}
	}
	if !refused {
		t.Fatal("no as-of point was coarsened away; fixture expects merges under kappa 2")
	}
}
