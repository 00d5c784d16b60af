package hsq_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	hsq "repro"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestPropertyDifferential drives random interleavings of Observe, EndStep
// and read Requests against the exact oracle, one subtest per paper
// workload generator and maintenance mode. The requests cover the whole
// cross product of the one read call — {Phis, Ranks, Values} × {full
// history, an AvailableWindows entry} × {accurate, Quick} × {unbudgeted, a
// small MaxReads} — and every answer is checked against its stated bound.
// Each read also holds the one summary path to itself on the state it found
// (sealed backlog and live buffer included; manual mode keeps a backlog by
// construction): the window sizes Query accepts are exactly
// AvailableWindows, a quick windowed Query returns the values of the
// one-member plan over the same window, and a peer's Summary is the plan
// member's full-scope summary.
// Every decision — batch sizes, step boundaries, request shapes — comes from
// one seeded source, so any failure is reproducible: the failure log prints
// the seed and the trailing operation log, and HSQ_PROP_SEED replays a
// specific seed.
func TestPropertyDifferential(t *testing.T) {
	seed := propSeed(t)
	for i, name := range workload.Names() {
		for j, mode := range []string{"sync", "async", "manual"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				runDifferential(t, name, mode, seed+int64(i)+1000*int64(j))
			})
		}
	}
}

// propSeed is the property tests' base seed: 1, or HSQ_PROP_SEED.
func propSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("HSQ_PROP_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad HSQ_PROP_SEED %q: %v", s, err)
	}
	return v
}

// opLog is a bounded trail of executed operations, printed on failure so a
// reproduction does not need a debugger.
type opLog struct {
	ops []string
}

func (l *opLog) add(format string, args ...any) {
	l.ops = append(l.ops, fmt.Sprintf(format, args...))
	if len(l.ops) > 40 {
		l.ops = l.ops[1:]
	}
}

func (l *opLog) String() string { return strings.Join(l.ops, "\n") }

func runDifferential(t *testing.T, wname, mode string, seed int64) {
	const eps = 0.05
	db, err := hsq.Open(hsq.Options{Epsilon: eps, Kappa: 3, Backend: "mem", BlockSize: 1024, Maintenance: mode})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck // in-memory state dies anyway
	eng, err := db.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.ByName(wname, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	// The data, as the windows see it: every sealed step's batch, oldest
	// first, then the live one.
	var steps [][]int64
	var live []int64
	var log opLog
	var requests, windowed, truncated int // how much of the cross product the run reached
	var folds, foldsBacklogLive int       // fold checks judged; of those, on a sealed backlog plus a live buffer

	fail := func(op int, format string, args ...any) {
		t.Helper()
		t.Fatalf("workload=%s mode=%s seed=%d op=%d: %s\n(replay with HSQ_PROP_SEED; trailing ops:)\n%s",
			wname, mode, seed, op, fmt.Sprintf(format, args...), log.String())
	}

	for op := 0; op < 400; op++ {
		switch k := rng.Intn(10); {
		case k <= 4: // observe a batch
			batch := workload.Fill(gen, 1+rng.Intn(100))
			eng.ObserveSlice(batch)
			live = append(live, batch...)
			log.add("observe %d elements", len(batch))
		case k == 5: // end the step
			if _, err := eng.EndStep(); err != nil {
				fail(op, "EndStep: %v", err)
			}
			if len(live) > 0 { // an empty step is a no-op
				steps, live = append(steps, live), nil
			}
			log.add("endstep (%d steps)", len(steps))
		case k == 6 && mode != "sync": // force pending installs to land
			if err := eng.SyncMaintenance(); err != nil {
				fail(op, "SyncMaintenance: %v", err)
			}
			log.add("sync maintenance")
		default: // one read request
			if len(steps) == 0 && len(live) == 0 {
				continue
			}
			var req hsq.Request
			req.Quick = rng.Intn(2) == 0
			if rng.Intn(2) == 0 {
				req.MaxReads = 1 + rng.Intn(3)
			}
			if wins := eng.AvailableWindows(); len(wins) > 0 && rng.Intn(2) == 0 {
				req.Window = wins[rng.Intn(len(wins))]
			}
			// The scope's oracle: the window's steps (or all) plus the live batch.
			or := oracle.New(0)
			first := 0
			if req.Window != 0 {
				first = len(steps) - req.Window
			}
			for _, b := range steps[first:] {
				or.Add(b...)
			}
			kind := rng.Intn(3)
			if kind == 2 { // rank of values the engine has seen
				for i := 1 + rng.Intn(2); i > 0; i-- {
					v := gen.Next()
					eng.Observe(v)
					live = append(live, v)
					req.Values = append(req.Values, v)
				}
			}
			or.Add(live...)
			n := or.Count()
			switch kind {
			case 0:
				for i := 1 + rng.Intn(4); i > 0; i-- {
					if phi := rng.Float64(); phi > 0 {
						req.Phis = append(req.Phis, phi)
					} else {
						req.Phis = append(req.Phis, 0.5)
					}
				}
			case 1:
				for i := 1 + rng.Intn(3); i > 0; i-- {
					req.Ranks = append(req.Ranks, 1+rng.Int63n(n))
				}
			}
			// The accurate bounds scale with the stream side of the scope: the
			// live batch plus sealed-but-uninstalled steps (async mode's merge
			// debt). A background install landing after this read only shrinks
			// the true portion, so it stays an upper bound. Each stream-side
			// piece's summary is discrete — its sketch answers within
			// ⌈ε₂·M/2⌉ ≥ 1 ranks — so every bound carries one rank of slack
			// per piece, which matters on scopes of a few elements.
			ms := eng.MaintenanceStats()
			m := int64(len(live)) + ms.PendingElements
			slack := 1 + int64(ms.PendingSteps)

			ans, err := eng.Query(context.Background(), req)
			if err != nil {
				// A background merge may coarsen the partition boundaries
				// between AvailableWindows and the query.
				if mode == "async" && req.Window != 0 && !slices.Contains(eng.AvailableWindows(), req.Window) {
					log.add("window %d merged away", req.Window)
					continue
				}
				fail(op, "Query(%+v): %v", req, err)
			}
			log.add("query %+v -> %v (n=%d reads=%d truncated=%v)", req, ans.Values, ans.N, ans.Stats.RandReads, ans.Stats.Truncated)
			requests++
			if req.Window != 0 {
				windowed++
			}
			if ans.Stats.Truncated {
				truncated++
			}
			// check holds one answer to its stated bound; quick says which
			// algorithm produced it.
			check := func(via string, ans hsq.Answer, quick bool) {
				t.Helper()
				if ans.N != n {
					fail(op, "%s Query(%+v): N = %d, the scope holds %d", via, req, ans.N, n)
				}
				if quick && ans.Stats.RandReads != 0 {
					fail(op, "%s Query(%+v): a quick answer read %d blocks", via, req, ans.Stats.RandReads)
				}
				for i, got := range ans.Values {
					if kind == 2 {
						// Rank of value: accurate is exact on disk plus the ε₂
						// stream estimate, quick is O(ε·N).
						want, bound := or.Rank(req.Values[i]), int64(eps*float64(m))+slack
						if quick {
							bound = int64(2*eps*float64(n)) + slack
						}
						if d := abs64(got - want); d > bound {
							fail(op, "%s Query(%+v): rank of %d = %d, oracle %d: error %d > %d (n=%d m=%d)", via, req, req.Values[i], got, want, d, bound, n, m)
						}
						continue
					}
					var target int64
					if kind == 0 {
						target = min(max(int64(math.Ceil(req.Phis[i]*float64(n))), 1), n)
					} else {
						target = req.Ranks[i]
					}
					// Theorem 2 via Lemma 5: the bisection accepts within ε·m
					// of the target, the stream estimate itself errs by up to
					// ε₂·m (= ε·m/4), and snapping to a known element costs a
					// little more discreteness — O(ε·m) total, asserted as
					// 1.25·ε·m+2, inside Theorem 2's ε·N whenever the stream is
					// the smaller side.
					bound, name := int64(1.25*eps*float64(m))+2, "1.25·ε·m"
					switch {
					case quick: // Lemma 3
						bound, name = int64(1.5*eps*float64(n)), "1.5·ε·N"
					case ans.Stats.Truncated: // Lemma 4: the filter spread
						bound, name = int64(4*eps*float64(n)), "4·ε·N"
					}
					if se := or.SpanError(target, got); se > bound+slack {
						fail(op, "%s Query(%+v): target rank %d = %d: rank error %d > %s = %d (+%d) (n=%d m=%d)", via, req, target, got, se, name, bound, slack, n, m)
					}
				}
			}
			check("local", ans, req.Quick)
			if req.Window == 0 {
				// What a cluster node that does not store the stream answers:
				// the same request over the fetched shard summary.
				sum, err := eng.Summary()
				if err != nil {
					fail(op, "Summary: %v", err)
				}
				c, _, err := core.MergeShardSummaries([]*core.ShardSummary{sum})
				if err != nil {
					fail(op, "MergeShardSummaries: %v", err)
				}
				remote, err := hsq.QuickAnswer(c, req)
				if err != nil {
					fail(op, "QuickAnswer(%+v): %v", req, err)
				}
				check("non-member", remote, true)
			}

			// The fold: the window check, the plan member and the peer fetch
			// are one selection over one capture. Nothing here draws from
			// rng, so the operation sequence of a seed is what it was.
			phis := append([]float64{0.5}, req.Phis...) // the harness draws φ in (0, 1), as a plan requires
			wins := eng.AvailableWindows()
			full, err := db.ScopedSummary("s", query.Scope{})
			if err != nil {
				fail(op, "ScopedSummary: %v", err)
			}
			peer, err := eng.Summary()
			if err != nil {
				fail(op, "Summary: %v", err)
			}
			type verdict struct {
				w            int
				err, planErr error
				got, plan    []int64
			}
			var verdicts []verdict
			for w := 1; w <= len(steps)+1; w++ {
				v := verdict{w: w}
				var ans hsq.Answer
				if ans, v.err = eng.Query(context.Background(), hsq.Request{Phis: phis, Window: w, Quick: true}); v.err == nil {
					v.got = ans.Values
				}
				var res *query.Result
				if res, v.planErr = db.Query().Streams("s").Window(w).Phis(phis...).Run(); v.planErr == nil {
					v.plan = res.Groups[0].Windows[0].Values
				}
				verdicts = append(verdicts, v)
			}
			// A background install or merge between the reads above makes
			// them reads of different states; only async mode has one.
			if after := eng.MaintenanceStats(); mode == "async" && (after.Installs != ms.Installs || after.Merges != ms.Merges || after.Running) {
				log.add("maintenance ran under the fold checks")
				continue
			}
			if got, want := peer.AppendBinary(nil), full.AppendBinary(nil); !bytes.Equal(got, want) {
				fail(op, "Summary() = %+v, ScopedSummary(Scope{}) = %+v", peer, full)
			}
			folds++
			if ms.PendingSteps > 0 && len(live) > 0 {
				foldsBacklogLive++
			}
			for _, v := range verdicts {
				if ok := slices.Contains(wins, v.w); (v.err == nil) != ok || (v.planErr == nil) != ok {
					fail(op, "window %d: Query err = %v, plan err = %v, AvailableWindows = %v", v.w, v.err, v.planErr, wins)
				}
				if !slices.Equal(v.got, v.plan) {
					fail(op, "window %d phis %v: quick Query = %v, one-member plan = %v", v.w, phis, v.got, v.plan)
				}
			}
		}
	}
	t.Logf("seed %d: %d requests, %d windowed, %d truncated; %d fold checks, %d over a sealed backlog and a live buffer",
		seed, requests, windowed, truncated, folds, foldsBacklogLive)
	if mode == "manual" && foldsBacklogLive == 0 {
		t.Fatalf("seed %d: no fold check ran over a sealed backlog and a live buffer", seed)
	}
}

// TestPropertyMultiQuantiles drives the shared multi-target sweep and the
// per-snapshot probe memo against the oracle across random Observe /
// EndStep / Quantiles interleavings, in both maintenance modes. Every
// answer of a k-target call must meet the same Theorem 2 bound as a
// single-target Quantile, and every call is immediately re-issued to
// exercise the memoized path. In sync mode nothing can publish between the
// two calls, so the repeat must be bit-identical, resolve every probe from
// the memo and spend zero backend reads; in async mode background merges
// may publish a new version (with a fresh memo) at any point, so the
// repeat only has to stay within the error bound.
func TestPropertyMultiQuantiles(t *testing.T) {
	seed := propSeed(t)
	for i, mode := range []string{"sync", "async"} {
		t.Run(mode, func(t *testing.T) {
			t.Parallel()
			runMultiDifferential(t, mode, seed+100*int64(i))
		})
	}
}

func runMultiDifferential(t *testing.T, mode string, seed int64) {
	const eps = 0.05
	eng := hsq.OneStream(t, hsq.Options{
		Epsilon: eps, Kappa: 3, Backend: "mem", BlockSize: 1024, Maintenance: mode,
	})
	gen, err := workload.ByName("uniform", seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	or := oracle.New(1 << 14)
	var log opLog

	fail := func(op int, format string, args ...any) {
		t.Helper()
		t.Fatalf("mode=%s seed=%d op=%d: %s\n(replay with HSQ_PROP_SEED; trailing ops:)\n%s",
			mode, seed, op, fmt.Sprintf(format, args...), log.String())
	}
	checkBound := func(op int, call string, phis []float64, vs []int64, n int64, m int64) {
		t.Helper()
		for i, phi := range phis {
			target := int64(math.Ceil(phi * float64(n)))
			if target < 1 {
				target = 1
			}
			if se := or.SpanError(target, vs[i]); se > int64(1.25*eps*float64(m))+2 {
				fail(op, "%s phi=%g = %d: rank error %d > 1.25·ε·m = %g (n=%d m=%d)",
					call, phi, vs[i], se, 1.25*eps*float64(m), n, m)
			}
		}
	}

	for op := 0; op < 300; op++ {
		switch k := rng.Intn(10); {
		case k <= 4: // observe a batch
			batch := workload.Fill(gen, 1+rng.Intn(100))
			eng.ObserveSlice(batch)
			or.Add(batch...)
			log.add("observe %d elements", len(batch))
		case k == 5: // end the step
			if _, err := eng.EndStep(); err != nil {
				fail(op, "EndStep: %v", err)
			}
			log.add("endstep (n=%d)", or.Count())
		case k == 6 && mode == "async": // force pending publishes to land
			if err := eng.SyncMaintenance(); err != nil {
				fail(op, "SyncMaintenance: %v", err)
			}
			log.add("sync maintenance")
		default: // multi-target Quantiles, issued twice back to back
			n := or.Count()
			if n == 0 {
				continue
			}
			// The accept band scales with the stream portion: live stream
			// plus sealed-but-uninstalled steps (async mode's merge debt).
			// A background install landing after this read only shrinks the
			// true portion, so the bound below stays an upper bound.
			m := eng.StreamCount() + eng.MaintenanceStats().PendingElements
			phis := make([]float64, 1+rng.Intn(5))
			for i := range phis {
				phis[i] = rng.Float64()
				if phis[i] == 0 {
					phis[i] = 0.5
				}
			}
			first, fqs, err := eng.Quantiles(phis)
			if err != nil {
				fail(op, "Quantiles(%v): %v", phis, err)
			}
			log.add("quantiles %v -> %v (probes=%d reads=%d)", phis, first, fqs.Iterations, fqs.RandReads)
			checkBound(op, "Quantiles", phis, first, n, m)
			second, sqs, err := eng.Quantiles(phis)
			if err != nil {
				fail(op, "repeat Quantiles(%v): %v", phis, err)
			}
			log.add("repeat -> %v (reads=%d memoHits=%d)", second, sqs.RandReads, sqs.MemoHits)
			checkBound(op, "repeat Quantiles", phis, second, n, m)
			if mode == "sync" {
				// Same snapshot, same φ set: the memo must replay the whole
				// bisection without touching the store.
				for i := range first {
					if second[i] != first[i] {
						fail(op, "repeat Quantiles(%v): answer %d changed %d -> %d on an unchanged snapshot",
							phis, i, first[i], second[i])
					}
				}
				if sqs.RandReads != 0 {
					fail(op, "repeat Quantiles(%v) spent %d backend reads; want 0 (first %+v)", phis, sqs.RandReads, fqs)
				}
				if sqs.MemoHits != sqs.Iterations {
					fail(op, "repeat Quantiles(%v): %d memo hits over %d probes; want all", phis, sqs.MemoHits, sqs.Iterations)
				}
			}
		}
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
