package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/partition"
)

func TestQuickRank(t *testing.T) {
	f := buildFixture(t, 101, 0.1, 6, 300, 600)
	c := f.combined()
	n := float64(len(f.all))
	for _, idx := range []int{0, 100, 500, len(f.all) / 2, len(f.all) - 1} {
		v := f.all[idx]
		exact := float64(f.rankOf(v))
		got := float64(c.QuickRank(v))
		if math.Abs(got-exact) > 1.5*f.eps*n+1 {
			t.Errorf("QuickRank(%d) = %g, exact %g", v, got, exact)
		}
	}
	// Below the minimum the rank is 0; at or above the maximum it is N.
	if got := c.QuickRank(f.all[0] - 1); got != 0 {
		t.Errorf("QuickRank(below min) = %d", got)
	}
	for _, v := range []int64{f.all[len(f.all)-1], math.MaxInt64} {
		if got := c.QuickRank(v); got != c.N() {
			t.Errorf("QuickRank(%d) = %d, want N = %d", v, got, c.N())
		}
	}
}

// rankOfValue is RankOfValues for one value.
func rankOfValue(sums []*partition.Summary, pieces []StreamPiece, eps2 float64, v int64, pinBlocks bool) (int64, QueryCost, error) {
	rs, cost, err := RankOfValues(sums, pieces, eps2, []int64{v}, pinBlocks)
	if err != nil {
		return 0, cost, err
	}
	return rs[0], cost, nil
}

func TestRankOfValue(t *testing.T) {
	f := buildFixture(t, 103, 0.05, 8, 400, 1000)
	em := f.eps * float64(f.m)
	for _, idx := range []int{0, 50, 1000, len(f.all) / 2, len(f.all) - 1} {
		v := f.all[idx]
		exact := float64(f.rankOf(v))
		got, cost, err := rankOfValue(f.sums, f.pieces(), f.eps/4, v, true)
		if err != nil {
			t.Fatal(err)
		}
		// Historical part is exact; only the stream estimate errs (≤ εm/4;
		// assert εm/2).
		if math.Abs(float64(got)-exact) > em/2+1 {
			t.Errorf("RankOfValue(%d) = %d, exact %g (cost %+v)", v, got, exact, cost)
		}
	}
}

// TestRankOfValueNeverExceedsTotal: a value at or above every summary entry
// counts β₂ = ⌈1/ε₂+1⌉ entries per piece, β₂·ε₂·M = M + ε₂M unclamped, so the
// rank of the maximum used to read above N. Each piece (here a live one
// behind two sealed ones) contributes at most its M: the rank of MaxInt64
// is exactly N, and below the top entries nothing moves.
func TestRankOfValueNeverExceedsTotal(t *testing.T) {
	f := buildFixture(t, 131, 0.05, 4, 300, 900)
	eps2 := f.eps / 4
	ss := func(lo int64, m int64) StreamPiece { // β₂ ascending entries from lo
		p := StreamPiece{M: m, SS: make([]int64, beta(eps2))}
		for i := range p.SS {
			p.SS[i] = lo + int64(i)
		}
		return p
	}
	pieces := []StreamPiece{ss(10, 500), ss(2000, 700), {SS: f.ss, M: f.m}}
	var n int64 = 500 + 700 + f.m
	for _, s := range f.sums {
		n += s.Part.Count
	}
	got, _, err := rankOfValue(f.sums, pieces, eps2, math.MaxInt64, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Errorf("RankOfValue(MaxInt64) = %d, want the total %d", got, n)
	}
	if unclamped := streamRankEstimate(pieces, eps2, math.MaxInt64); unclamped <= float64(500+700+f.m) {
		t.Fatalf("fixture does not overshoot: unclamped stream estimate %g", unclamped)
	}
	// Two entries short of a piece's top the estimate is below M and untouched.
	v := pieces[0].SS[len(pieces[0].SS)-3]
	got, _, err = rankOfValue(nil, pieces[:1], eps2, v, true)
	if want := int64(streamRankEstimate(pieces[:1], eps2, v)); err != nil || got != want || got >= 500 {
		t.Errorf("RankOfValue below the top entries = %d, %v; want the unclamped %d < 500", got, err, want)
	}
}

// Property: RankOfValues is monotone non-decreasing in v.
func TestQuickRankOfValueMonotone(t *testing.T) {
	f := buildFixture(t, 107, 0.1, 5, 200, 400)
	prop := func(aRaw, bRaw uint32) bool {
		a := int64(aRaw) % (1 << 24)
		b := int64(bRaw) % (1 << 24)
		if a > b {
			a, b = b, a
		}
		ra, _, err := rankOfValue(f.sums, f.pieces(), f.eps/4, a, true)
		if err != nil {
			return false
		}
		rb, _, err := rankOfValue(f.sums, f.pieces(), f.eps/4, b, true)
		if err != nil {
			return false
		}
		return ra <= rb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestTruncatedStaysInFilters: an I/O-capped query must return a value
// whose rank lies within the Lemma 4 filter spread.
func TestTruncatedStaysInFilters(t *testing.T) {
	f := buildFixture(t, 113, 0.02, 10, 500, 1000)
	c := f.combined()
	n := int64(len(f.all))
	for _, phi := range []float64{0.3, 0.5, 0.7} {
		r := int64(math.Ceil(phi * float64(n)))
		v, cost, err := accurateOne(c, f.eps, r, QueryOptions{PinBlocks: true, MaxReads: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := f.rankOf(v)
		spread := 4 * f.eps * float64(n)
		if math.Abs(float64(got-r)) > spread {
			t.Errorf("phi=%g: truncated rank %d vs r=%d beyond 4εN=%g (cost %+v)", phi, got, r, spread, cost)
		}
	}
}

// Quick property: RankOfValues agrees with the exact oracle rank up to εm/2
// for arbitrary probe values (not just data elements).
func TestQuickRankOfValueAccuracy(t *testing.T) {
	f := buildFixture(t, 127, 0.05, 6, 300, 900)
	em := f.eps * float64(f.m)
	prop := func(raw uint32) bool {
		v := int64(raw) % (1 << 24)
		got, _, err := rankOfValue(f.sums, f.pieces(), f.eps/4, v, true)
		if err != nil {
			return false
		}
		exact := f.rankOf(v)
		return math.Abs(float64(got-exact)) <= em/2+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickRankEmpty(t *testing.T) {
	c := BuildPieces(nil, onePiece(nil, 0), 0.1, 0.1)
	if got := c.QuickRank(5); got != 0 {
		t.Errorf("QuickRank on empty = %d", got)
	}
	if _, _, err := rankOfValue(nil, nil, 0.1, 5, true); err != nil {
		t.Errorf("RankOfValue on empty combined should be 0, got err %v", err)
	}
	// sortedness helper sanity
	if !sort.SliceIsSorted([]int64{}, func(i, j int) bool { return false }) {
		t.Error("vacuous")
	}
}
