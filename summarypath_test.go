package hsq_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	hsq "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/query"
)

// TestRemoteSummaryDoesNotHydrate holds a peer's summary fetch to the path a
// local plan member takes: over a real ingest listener, the SummaryReq for an
// evicted stream is a sidecar read — no hydration, no eviction of the
// owner's hot set — and for a hydrated stream a snapshot that carries the
// stream-side pieces; both replies are byte-equal to db.ScopedSummary's.
func TestRemoteSummaryDoesNotHydrate(t *testing.T) {
	db, err := hsq.Open(hsq.Options{
		Epsilon: 0.1, Kappa: 2, Backend: "mem", BlockSize: 512,
		MaxHydratedStreams: 1, Maintenance: hsq.MaintenanceManual,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	rng := rand.New(rand.NewSource(18))
	step := func(st *hsq.Stream, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			st.Observe(rng.Int63n(10_000))
		}
		if _, err := st.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := db.Stream("fleet.cold")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		step(cold, 200)
	}
	if err := cold.SyncMaintenance(); err != nil { // eviction needs an installed backlog
		t.Fatal(err)
	}
	// The second stream takes the one hydration slot and keeps it: a sealed
	// backlog (manual mode installs nothing) and a live buffer.
	hot, err := db.Stream("fleet.hot")
	if err != nil {
		t.Fatal(err)
	}
	step(hot, 200)
	step(hot, 100)
	hot.Observe(42)
	if cold.Hydrated() || !hot.Hydrated() {
		t.Fatalf("fixture: cold hydrated = %v, hot hydrated = %v; stats %+v", cold.Hydrated(), hot.Hydrated(), db.DirectoryStats())
	}

	srv := ingest.New(ingest.Config{DB: db, Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)                          //nolint:errcheck
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	node := cluster.Node{ID: "owner", Addr: l.Addr().String()}

	for _, c := range []struct {
		name   string
		pieces int
	}{{"fleet.cold", 0}, {"fleet.hot", 3}} {
		before := db.DirectoryStats()
		got, err := cluster.FetchSummary(context.Background(), 5*time.Second, node, c.name)
		if err != nil {
			t.Fatalf("FetchSummary(%s): %v", c.name, err)
		}
		if after := db.DirectoryStats(); after.Hydrations != before.Hydrations || after.Evictions != before.Evictions {
			t.Fatalf("FetchSummary(%s) moved the directory: %+v → %+v", c.name, before, after)
		}
		want, err := db.ScopedSummary(c.name, query.Scope{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Fatalf("FetchSummary(%s) = %+v, db.ScopedSummary = %+v", c.name, got, want)
		}
		if len(got.Pieces) != c.pieces || got.N == 0 {
			t.Fatalf("FetchSummary(%s): N = %d with %d stream-side pieces, want %d", c.name, got.N, len(got.Pieces), c.pieces)
		}
	}
}

// TestSummaryOnDroppedStream: Summary shares the plan member's path but keeps
// a handle's contract — a stale handle fails with ErrClosed and never
// answers for a stream re-created under its name.
func TestSummaryOnDroppedStream(t *testing.T) {
	db, err := hsq.Open(hsq.Options{Epsilon: 0.1, Backend: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	old, err := db.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DropStream("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Stream("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := old.Summary(); !errors.Is(err, hsq.ErrClosed) {
		t.Fatalf("Summary on a dropped stream's handle: %v, want ErrClosed", err)
	}
}

// TestScopeHotColdAgree: a plan member answers the same for every scope —
// the same bytes or the same error text — whether its stream is hydrated
// (snapshot) or evicted (sidecar), on histories whose merges have coarsened
// some step boundaries; and a registered-never-sealed stream answers like a
// fresh engine. Every cold read is made twice — the first of the stream
// decodes its sidecar, later ones use the summary it holds — and both agree
// byte for byte. Seeded: the seed is logged and HSQ_PROP_SEED replays it.
func TestScopeHotColdAgree(t *testing.T) {
	seed := propSeed(t)
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	// answer renders one scoped read as comparable text.
	answer := func(sum *core.ShardSummary, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return string(sum.AppendBinary(nil))
	}
	scopes := func(steps int) []query.Scope {
		var out []query.Scope
		for w := 0; w <= steps+1; w++ {
			for back := 0; back <= 2; back++ {
				for asOf := 0; asOf <= steps+1; asOf++ {
					out = append(out, query.Scope{Window: w, Back: back, AsOf: asOf})
				}
			}
		}
		return out
	}
	for _, kappa := range []int{2, 3, 10} {
		for trial := 0; trial < 2; trial++ {
			steps := 1 + rng.Intn(40)
			db, err := hsq.Open(hsq.Options{
				Epsilon: 0.1, Kappa: kappa, Backend: "mem", BlockSize: 512, MaxHydratedStreams: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			feed := func(name string, steps int) *hsq.Stream {
				st, err := db.Stream(name)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < steps; s++ {
					for i := 1 + rng.Intn(60); i > 0; i-- {
						st.Observe(rng.Int63n(1000))
					}
					if _, err := st.EndStep(); err != nil {
						t.Fatal(err)
					}
				}
				return st
			}
			st := feed("s", steps)
			if !st.Hydrated() {
				t.Fatal("fixture: stream evicted before the hot pass")
			}
			hot := make(map[query.Scope]string)
			for _, sc := range scopes(steps) {
				hot[sc] = answer(db.ScopedSummary("s", sc))
			}
			feed("other", 1) // takes the one hydration slot
			if st.Hydrated() {
				t.Fatal("fixture: stream still hydrated for the cold pass")
			}
			before := db.DirectoryStats().Hydrations
			refused := 0
			for _, sc := range scopes(steps) {
				cold := answer(db.ScopedSummary("s", sc))
				if cold != hot[sc] {
					t.Fatalf("seed %d kappa %d steps %d scope %+v:\n hot: %q\ncold: %q", seed, kappa, steps, sc, hot[sc], cold)
				}
				if again := answer(db.ScopedSummary("s", sc)); again != cold {
					t.Fatalf("seed %d kappa %d steps %d scope %+v: a second cold read\n got %q\nwant %q", seed, kappa, steps, sc, again, cold)
				}
				if sc.Window <= steps && sc.AsOf <= steps && strings.HasPrefix(cold, "error: ") {
					refused++
				}
			}
			if after := db.DirectoryStats().Hydrations; after != before {
				t.Fatalf("seed %d kappa %d: the cold pass hydrated (%d → %d): it compared hot with hot", seed, kappa, before, after)
			}
			t.Logf("kappa %d, %d steps: %d scopes agree, %d of them refused inside the history", kappa, steps, len(hot), refused)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Registered, never sealed: an empty manifest, no sidecar — zero spans,
	// like an engine that has seen nothing.
	db, err := hsq.Open(hsq.Options{Epsilon: 0.1, Backend: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	if err := db.RegisterStreams("never"); err != nil {
		t.Fatal(err)
	}
	fresh := hsq.OneStream(t, hsq.Options{Epsilon: 0.1, Backend: "mem"}) // hydrated, has seen nothing
	for _, sc := range scopes(0) {
		cold, hot := answer(db.ScopedSummary("never", sc)), answer(fresh.DB().ScopedSummary(fresh.Name(), sc))
		if cold != hot {
			t.Fatalf("never-sealed stream, scope %+v:\n hot: %q\ncold: %q", sc, hot, cold)
		}
	}
	if ds := db.DirectoryStats(); ds.Hydrations != 0 {
		t.Fatalf("reading a never-sealed stream hydrated it: %+v", ds)
	}
}
