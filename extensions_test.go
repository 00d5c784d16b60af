package hsq

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/workload"
)

// TestQueryIOBudget: a MaxReads cap must bound I/O, set Truncated when it
// bites, and degrade accuracy gracefully (answer stays within the filter
// spread of Lemma 4).
func TestQueryIOBudget(t *testing.T) {
	// Memoization off: the test re-queries the same φ against the same
	// snapshot, and a memo-resolved re-query costs no reads to cap.
	eng := OneStream(t, Options{Epsilon: 0.005, Kappa: 3, Dir: t.TempDir(), BlockSize: 1024, ProbeMemoEntries: -1})
	gen := workload.NewUniform(23)
	orc := oracle.New(0)
	for step := 0; step < 10; step++ {
		batch := workload.Fill(gen, 3000)
		eng.ObserveSlice(batch)
		orc.Add(batch...)
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	stream := workload.Fill(gen, 2000)
	eng.ObserveSlice(stream)
	orc.Add(stream...)

	// Find a target that needs several bisection iterations so a tiny cap
	// actually bites (some φ converge on the first probe).
	var phi float64
	var full QueryStats
	for _, cand := range []float64{0.5, 0.31, 0.62, 0.77, 0.13, 0.87, 0.41} {
		_, qs, err := Query1(eng, Request{Phis: []float64{cand}})
		if err != nil {
			t.Fatal(err)
		}
		if qs.Truncated {
			t.Error("unbounded query should not be truncated")
		}
		if qs.Iterations >= 3 && qs.RandReads >= 4 {
			phi, full = cand, qs
			break
		}
	}
	if phi == 0 {
		t.Skip("no query at this scale needs multiple iterations; cannot exercise the budget")
	}

	// A cap of 1 must truncate.
	v, qs, err := Query1(eng, Request{Phis: []float64{phi}, MaxReads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !qs.Truncated {
		t.Errorf("MaxReads=1: want Truncated, got %+v (full=%+v)", qs, full)
	}
	// Answer degrades but stays within the 4εN filter spread (Lemma 4).
	r := int64(math.Ceil(phi * float64(orc.Count())))
	n := float64(orc.Count())
	if d := float64(orc.SpanError(r, v)); d > 4*0.005*n {
		t.Errorf("truncated answer error %g beyond filter spread %g", d, 4*0.005*n)
	}

	// A generous cap must not truncate and must match the unbounded answer.
	v2, qs2, err := Query1(eng, Request{Phis: []float64{phi}, MaxReads: 10 * full.RandReads})
	if err != nil {
		t.Fatal(err)
	}
	if qs2.Truncated {
		t.Errorf("generous cap truncated: %+v", qs2)
	}
	vFull, _, err := Query1(eng, Request{Phis: []float64{phi}})
	if err != nil {
		t.Fatal(err)
	}
	if v2 != vFull {
		t.Errorf("generous cap answer %d != unbounded %d", v2, vFull)
	}
}

// TestBudgetExcludesCacheAndMemoHits pins the budget-accounting rule: only
// reads that reach the storage backend spend MaxReads. Probes absorbed by
// the block cache or the snapshot's rank-probe memo are the absence of an
// access, so a warm repeat of a query that cold needs many reads completes
// untruncated under MaxReads=1.
func TestBudgetExcludesCacheAndMemoHits(t *testing.T) {
	phis := []float64{0.25, 0.5, 0.75, 0.9, 0.99}
	run := func(t *testing.T, cfg Options, wantMemo bool) {
		eng := OneStream(t, cfg)
		gen := workload.NewUniform(37)
		for step := 0; step < 10; step++ {
			eng.ObserveSlice(workload.Fill(gen, 3000))
			if _, err := eng.EndStep(); err != nil {
				t.Fatal(err)
			}
		}
		eng.ObserveSlice(workload.Fill(gen, 2000))

		ca, err := eng.Query(context.Background(), Request{Phis: phis})
		if err != nil {
			t.Fatal(err)
		}
		cold, cqs := ca.Values, ca.Stats
		if cqs.RandReads == 0 {
			t.Fatal("cold query hit no backend reads; budget test is vacuous")
		}
		wa, err := eng.Query(context.Background(), Request{Phis: phis, MaxReads: 1})
		if err != nil {
			t.Fatal(err)
		}
		warm, wqs := wa.Values, wa.Stats
		if wqs.Truncated {
			t.Errorf("warm repeat truncated under MaxReads=1: %+v (cold %+v)", wqs, cqs)
		}
		if wqs.RandReads > 1 {
			t.Errorf("warm repeat spent %d backend reads over a budget of 1", wqs.RandReads)
		}
		if wantMemo {
			if wqs.MemoHits == 0 || wqs.MemoHits != wqs.Iterations {
				t.Errorf("warm repeat: %d memo hits over %d probes; want every probe memoized", wqs.MemoHits, wqs.Iterations)
			}
		} else if wqs.CacheHits == 0 {
			t.Errorf("warm repeat hit the block cache 0 times: %+v", wqs)
		}
		for i := range cold {
			if warm[i] != cold[i] {
				t.Errorf("phi=%g: warm answer %d != cold %d", phis[i], warm[i], cold[i])
			}
		}
	}
	t.Run("memo", func(t *testing.T) {
		run(t, Options{Epsilon: 0.005, Kappa: 3, Dir: t.TempDir(), BlockSize: 1024}, true)
	})
	t.Run("block-cache", func(t *testing.T) {
		// Memoization off: the repeat must re-descend the cursors, and the
		// block cache alone absorbs the reads.
		run(t, Options{Epsilon: 0.005, Kappa: 3, Dir: t.TempDir(), BlockSize: 1024,
			CacheBlocks: 4096, ProbeMemoEntries: -1}, false)
	})
}

// TestIOBudgetTradeoffMonotone sweeps the cap and checks that allowed reads
// never exceed it (plus the final iteration's in-flight reads).
func TestIOBudgetTradeoffMonotone(t *testing.T) {
	eng := OneStream(t, Options{Epsilon: 0.002, Kappa: 3, Dir: t.TempDir(), BlockSize: 512})
	gen := workload.NewUniform(29)
	for step := 0; step < 12; step++ {
		eng.ObserveSlice(workload.Fill(gen, 4000))
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	eng.ObserveSlice(workload.Fill(gen, 2000))
	parts := eng.PartitionCount()
	for _, cap := range []int{1, 2, 4, 8, 16, 32} {
		_, qs, err := Query1(eng, Request{Phis: []float64{0.5}, MaxReads: cap})
		if err != nil {
			t.Fatal(err)
		}
		// The cap is checked between iterations; one iteration can add at
		// most ~log(blocks) reads per partition. Bound loosely.
		slack := parts * 16
		if qs.RandReads > cap+slack {
			t.Errorf("cap %d: %d reads", cap, qs.RandReads)
		}
	}
}

// TestSimulateDisk: latency profiles slow queries proportionally to I/O and
// invalid profiles are rejected.
func TestSimulateDisk(t *testing.T) {
	if _, err := Open(Options{Epsilon: 0.1, Dir: t.TempDir(), SimulateDisk: "floppy"}); err == nil {
		t.Error("unknown profile: want error")
	}
	eng := OneStream(t, Options{Epsilon: 0.02, Kappa: 3, Dir: t.TempDir(), BlockSize: 1024, SimulateDisk: "hdd"})
	gen := workload.NewUniform(71)
	for step := 0; step < 4; step++ {
		eng.ObserveSlice(workload.Fill(gen, 1500))
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	_, qs, err := eng.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if qs.RandReads > 0 {
		// Each random read is charged ~1ms under the HDD profile.
		wantMin := time.Duration(qs.RandReads) * time.Millisecond
		if qs.Elapsed < wantMin {
			t.Errorf("HDD-simulated query took %v for %d reads; want ≥ %v", qs.Elapsed, qs.RandReads, wantMin)
		}
	}
}
