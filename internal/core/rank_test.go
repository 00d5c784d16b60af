package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
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
	// Below the minimum the rank is 0.
	if got := c.QuickRank(f.all[0] - 1); got != 0 {
		t.Errorf("QuickRank(below min) = %d", got)
	}
}

func TestRankOfValue(t *testing.T) {
	f := buildFixture(t, 103, 0.05, 8, 400, 1000)
	em := f.eps * float64(f.m)
	for _, idx := range []int{0, 50, 1000, len(f.all) / 2, len(f.all) - 1} {
		v := f.all[idx]
		exact := float64(f.rankOf(v))
		got, cost, err := RankOfValue(f.sums, f.pieces(), f.eps/4, v, true)
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

// Property: RankOfValue is monotone non-decreasing in v.
func TestQuickRankOfValueMonotone(t *testing.T) {
	f := buildFixture(t, 107, 0.1, 5, 200, 400)
	prop := func(aRaw, bRaw uint32) bool {
		a := int64(aRaw) % (1 << 24)
		b := int64(bRaw) % (1 << 24)
		if a > b {
			a, b = b, a
		}
		ra, _, err := RankOfValue(f.sums, f.pieces(), f.eps/4, a, true)
		if err != nil {
			return false
		}
		rb, _, err := RankOfValue(f.sums, f.pieces(), f.eps/4, b, true)
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

// Quick property: RankOfValue agrees with the exact oracle rank up to εm/2
// for arbitrary probe values (not just data elements).
func TestQuickRankOfValueAccuracy(t *testing.T) {
	f := buildFixture(t, 127, 0.05, 6, 300, 900)
	em := f.eps * float64(f.m)
	prop := func(raw uint32) bool {
		v := int64(raw) % (1 << 24)
		got, _, err := RankOfValue(f.sums, f.pieces(), f.eps/4, v, true)
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
	if _, _, err := RankOfValue(nil, nil, 0.1, 5, true); err != nil {
		t.Errorf("RankOfValue on empty combined should be 0, got err %v", err)
	}
	// sortedness helper sanity
	if !sort.SliceIsSorted([]int64{}, func(i, j int) bool { return false }) {
		t.Error("vacuous")
	}
}
