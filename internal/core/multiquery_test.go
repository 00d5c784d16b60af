package core

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/partition"
)

// phiRanks maps a φ set to rank targets over n elements.
func phiRanks(phis []float64, n int64) []int64 {
	rs := make([]int64, len(phis))
	for i, phi := range phis {
		rs[i] = int64(math.Ceil(phi * float64(n)))
	}
	return rs
}

// TestMultiQueryGuarantee: every answer of a shared sweep obeys the same
// 1.5·εm bound as a single-target query, with the targets deliberately
// unsorted and containing a duplicate.
func TestMultiQueryGuarantee(t *testing.T) {
	for _, seed := range []int64{5, 17, 29} {
		f := buildFixture(t, seed, 0.05, 12, 400, 800)
		c := f.combined()
		n := int64(len(f.all))
		rs := phiRanks([]float64{0.9, 0.1, 0.5, 0.99, 0.5, 0.25}, n)
		ans, cost, err := AccurateMultiQueryOpts(c, f.eps, rs, QueryOptions{PinBlocks: true})
		if err != nil {
			t.Fatal(err)
		}
		bound := 1.5 * f.eps * float64(f.m)
		for i, v := range ans {
			hi := f.rankOf(v)
			lo := int64(sort.Search(len(f.all), func(j int) bool { return f.all[j] >= v })) + 1
			if float64(hi) < float64(rs[i])-bound || float64(lo) > float64(rs[i])+bound {
				t.Errorf("seed=%d target %d (r=%d): answer %d rank span [%d,%d] outside ±%.0f",
					seed, i, rs[i], v, lo, hi, bound)
			}
		}
		// Duplicate targets (index 2 and 4 are both φ=0.5) share one slot set.
		if ans[2] != ans[4] {
			t.Errorf("duplicate targets diverged: %d vs %d", ans[2], ans[4])
		}
		if cost.Truncated {
			t.Error("unbudgeted sweep reported Truncated")
		}
	}
}

// TestMultiQueryProbeSharing is the tentpole claim at the core layer. Two
// regimes matter:
//
//   - Targets whose filter intervals overlap (a dashboard's confidence band
//     around a percentile) share their bisection prefix and often a single
//     accepting probe, so the sweep must beat k single-target calls by ≥2×.
//   - Spread targets (p25/p50/p75) have disjoint filters; no algorithm can
//     resolve them with fewer than one accepting probe each, so the sweep
//     must simply never cost MORE than the k single-target calls (the
//     first-live-midpoint policy guarantees the lowest target walks exactly
//     its solo probe sequence).
func TestMultiQueryProbeSharing(t *testing.T) {
	f := buildFixture(t, 41, 0.05, 12, 400, 100)
	c := f.combined()
	n := int64(len(f.all))
	probes := func(rs []int64) (single, shared int) {
		for _, r := range rs {
			_, cost, err := accurateOne(c, f.eps, r, QueryOptions{PinBlocks: true})
			if err != nil {
				t.Fatal(err)
			}
			single += cost.Iterations
		}
		_, mcost, err := AccurateMultiQueryOpts(c, f.eps, rs, QueryOptions{PinBlocks: true})
		if err != nil {
			t.Fatal(err)
		}
		return single, mcost.Iterations
	}

	band := phiRanks([]float64{0.4995, 0.5, 0.5005}, n)
	single, shared := probes(band)
	if shared*2 > single {
		t.Errorf("banded k=3: shared sweep took %d probes, singles took %d — want ≥2× sharing", shared, single)
	}
	t.Logf("banded k=3: %d shared probes vs %d single-target probes", shared, single)

	for _, phis := range [][]float64{
		{0.25, 0.5, 0.75},
		{0.5, 0.9, 0.99},
		{0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95, 0.99},
	} {
		rs := phiRanks(phis, n)
		single, shared := probes(rs)
		if shared > single {
			t.Errorf("spread k=%d: shared sweep took %d probes, singles took %d — sweep must never cost more",
				len(rs), shared, single)
		}
		t.Logf("spread k=%d: %d shared probes vs %d single-target probes", len(rs), shared, single)
	}
}

// TestMultiQueryMemoRepeatZeroIO: with a probe memo attached, repeating the
// identical query resolves every probe from the memo — no backend reads, no
// cache hits, no block skips, cursors never even open.
func TestMultiQueryMemoRepeatZeroIO(t *testing.T) {
	f := buildFixture(t, 53, 0.05, 10, 300, 800)
	c := f.combined()
	n := int64(len(f.all))
	rs := phiRanks([]float64{0.1, 0.5, 0.9}, n)
	opts := QueryOptions{PinBlocks: true, Memo: partition.NewProbeMemo(4096)}

	first, fcost, err := AccurateMultiQueryOpts(c, f.eps, rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fcost.RandReads == 0 {
		t.Fatal("cold query did no backend reads — fixture too small to test the memo")
	}
	second, scost, err := AccurateMultiQueryOpts(c, f.eps, rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("target %d: memoized answer %d != cold answer %d", i, second[i], first[i])
		}
	}
	if scost.RandReads != 0 || scost.CacheHits != 0 || scost.SkippedBlocks != 0 {
		t.Errorf("repeat cost %+v; want zero I/O of any kind", scost)
	}
	if scost.MemoHits != scost.Iterations || scost.MemoHits == 0 {
		t.Errorf("repeat: %d memo hits over %d probes; want every probe memoized", scost.MemoHits, scost.Iterations)
	}
}

// TestMultiQueryMemoSpendsNoBudget is the budget-accounting regression:
// only reads that reach the backend spend MaxReads, so a fully memoized
// sweep runs to completion under a budget it could never afford cold.
func TestMultiQueryMemoSpendsNoBudget(t *testing.T) {
	f := buildFixture(t, 59, 0.05, 10, 300, 800)
	c := f.combined()
	n := int64(len(f.all))
	rs := phiRanks([]float64{0.2, 0.5, 0.8}, n)
	memo := partition.NewProbeMemo(4096)

	full, _, err := AccurateMultiQueryOpts(c, f.eps, rs, QueryOptions{PinBlocks: true, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	// Cold under MaxReads: 1 this sweep must truncate...
	_, tcost, err := AccurateMultiQueryOpts(c, f.eps, rs, QueryOptions{PinBlocks: true, MaxReads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !tcost.Truncated {
		t.Fatal("cold sweep under MaxReads=1 did not truncate — budget test is vacuous")
	}
	// ...but warm it completes: memo hits are the absence of an access.
	got, cost, err := AccurateMultiQueryOpts(c, f.eps, rs, QueryOptions{PinBlocks: true, MaxReads: 1, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if cost.Truncated {
		t.Errorf("memoized sweep truncated under MaxReads=1 (cost %+v)", cost)
	}
	for i := range full {
		if got[i] != full[i] {
			t.Errorf("target %d: budgeted memoized answer %d != unbudgeted %d", i, got[i], full[i])
		}
	}
}

// TestMultiQueryTruncatedStaysInFilters: a budget-capped sweep's answers
// stay within the Lemma 4 filter spread for every target.
func TestMultiQueryTruncatedStaysInFilters(t *testing.T) {
	f := buildFixture(t, 67, 0.02, 10, 500, 1000)
	c := f.combined()
	n := int64(len(f.all))
	rs := phiRanks([]float64{0.3, 0.5, 0.7}, n)
	ans, cost, err := AccurateMultiQueryOpts(c, f.eps, rs, QueryOptions{PinBlocks: true, MaxReads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !cost.Truncated {
		t.Fatal("MaxReads=1 sweep did not truncate")
	}
	spread := 4 * f.eps * float64(n)
	for i, v := range ans {
		if got := f.rankOf(v); math.Abs(float64(got-rs[i])) > spread {
			t.Errorf("target %d: truncated rank %d vs r=%d beyond 4εN=%g", i, got, rs[i], spread)
		}
	}
}

// TestMultiQueryInterrupt: the interrupt hook aborts the sweep with the
// hook's error.
func TestMultiQueryInterrupt(t *testing.T) {
	f := buildFixture(t, 71, 0.05, 10, 300, 800)
	c := f.combined()
	n := int64(len(f.all))
	rs := phiRanks([]float64{0.1, 0.5, 0.9}, n)
	boom := errors.New("interrupted")
	_, _, err := AccurateMultiQueryOpts(c, f.eps, rs, QueryOptions{
		PinBlocks: true,
		Interrupt: func() error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the interrupt error", err)
	}
}

// TestMultiQueryEmpty: no targets, no work.
func TestMultiQueryEmpty(t *testing.T) {
	f := buildFixture(t, 73, 0.1, 4, 100, 200)
	c := f.combined()
	ans, cost, err := AccurateMultiQueryOpts(c, f.eps, nil, QueryOptions{})
	if err != nil || len(ans) != 0 || cost.Iterations != 0 {
		t.Fatalf("empty sweep: ans=%v cost=%+v err=%v", ans, cost, err)
	}
}
