package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/partition"
)

func newDev(t *testing.T) *disk.Manager {
	t.Helper()
	m, err := disk.NewManager(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// buildFigure3 reproduces the paper's Figure 3 setup: P1 = 1..100,
// P2 = 101..200, P3 = 2..201, stream = 401..600, ε = 1/2 (ε₁ = 1/4). The
// paper summarizes the stream at ε₂ = 1/8; this system keeps it, and the
// piece a read gets is the stream whole.
func buildFigure3(t *testing.T) (sums []*partition.Summary, stream []int64, all []int64) {
	t.Helper()
	dev := newDev(t)
	store, err := partition.NewStore(dev, partition.Config{Kappa: 10, Eps1: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(lo, hi int64) []int64 {
		out := make([]int64, 0, hi-lo+1)
		for v := lo; v <= hi; v++ {
			out = append(out, v)
		}
		return out
	}
	p1, p2, p3 := mk(1, 100), mk(101, 200), mk(2, 201)
	for i, batch := range [][]int64{p1, p2, p3} {
		if _, err := store.AddBatch(batch, i+1); err != nil {
			t.Fatal(err)
		}
	}
	all = append(all, p1...)
	all = append(all, p2...)
	all = append(all, p3...)

	// Stream 401..600, already sorted.
	stream = mk(401, 600)
	all = append(all, stream...)
	return store.Entries(), stream, all
}

func TestFigure3Summaries(t *testing.T) {
	sums, stream, _ := buildFigure3(t)
	if len(sums) != 3 {
		t.Fatalf("partitions = %d", len(sums))
	}
	// Each historical summary has β₁ = 5 entries; the paper's values for P1
	// are 1,25,50,75,100.
	chronFirst := sums[0]
	want := []int64{1, 25, 50, 75, 100}
	if !slices.Equal(chronFirst.Values, want) {
		t.Errorf("P1 summary = %v, want %v", chronFirst.Values, want)
	}
	// A read holds the stream whole: 201 entries, the minimum 401 twice.
	if whole := (StreamPiece{}).Merge(stream); len(whole.SS) != 201 || whole.SS[0] != 401 || whole.SS[1] != 401 || whole.SS[200] != 600 {
		t.Errorf("whole piece = %d entries from %d, %d to %d; want 201 from 401, 401 to 600", len(whole.SS), whole.SS[0], whole.SS[1], whole.SS[200])
	}
	// The piece leaves the engine at ε₁ = 1/4: β₁ = 5 entries starting at the
	// exact minimum 401, as P1's.
	ss := StreamPiece{}.Merge(stream).At(0.25).SS
	if want := []int64{401, 450, 500, 550, 600}; !slices.Equal(ss, want) {
		t.Errorf("piece at ε₁ = %v, want %v", ss, want)
	}
	// Lemma 1: SS[i] has rank within [i·ε₁m, (i+1)·ε₁m], m=200, ε₁m=50.
	for i := 1; i < len(ss); i++ {
		rank := ss[i] - 400 // stream is 401..600, rank of v is v-400
		lo, hi := int64(i*50), int64((i+1)*50)
		if rank < lo || rank > hi {
			t.Errorf("SS[%d]=%d has stream rank %d, want within [%d,%d]", i, ss[i], rank, lo, hi)
		}
	}
}

// TestMergeLeavesReceiver holds StreamPiece.Merge to the sorted union, taken
// whole, for sorted values that land below, inside and above the piece's, on
// an empty and a non-empty piece, with repeats: and the piece it merged into
// is unchanged, so a reader holding it still sees what it took.
func TestMergeLeavesReceiver(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		draw := func(n int, lo, span int64) []int64 {
			vs := make([]int64, n)
			for i := range vs {
				vs[i] = lo + rng.Int63n(span)
			}
			return slices.Sorted(slices.Values(vs))
		}
		var p StreamPiece
		if trial%5 != 0 {
			p = p.Merge(draw(1+rng.Intn(400), 1000, 1000))
		}
		held := slices.Clone(p.SS)
		lo := []int64{0, 1000, 1500, 2000}[rng.Intn(4)] // below, inside, through the top, above
		tail := draw(rng.Intn(50), lo, []int64{1, 10, 1000}[rng.Intn(3)])
		got := p.Merge(tail)
		if !slices.Equal(p.SS, held) {
			t.Fatalf("trial %d: Merge wrote the piece it merged into", trial)
		}
		var elems []int64
		if p.M > 0 {
			elems = p.SS[1:]
		}
		want := slices.Sorted(slices.Values(append(slices.Clone(elems), tail...)))
		if len(want) == 0 {
			if got.M != 0 || len(got.SS) != 0 {
				t.Fatalf("trial %d: merging nothing into nothing gave %d entries", trial, len(got.SS))
			}
			continue
		}
		if got.M != int64(len(want)) || !slices.Equal(got.SS, append([]int64{want[0]}, want...)) {
			t.Fatalf("trial %d: Merge of %d and %d values is not their sorted union whole", trial, p.M, len(tail))
		}
	}
}

func TestFigure3Bounds(t *testing.T) {
	sums, stream, all := buildFigure3(t)
	slices.Sort(all)
	c := BuildPieces(sums, []StreamPiece{StreamPiece{}.Merge(stream)}, 0.25, 0)
	if c.N() != 600 {
		t.Fatalf("N = %d", c.N())
	}
	ts := materialise(c)
	if ts.Len() != 3*5+201 {
		t.Fatalf("δ = %d, want 216", ts.Len())
	}
	rankOf := func(v int64) int64 {
		return int64(sort.Search(len(all), func(i int) bool { return all[i] > v }))
	}
	// Lemma 2 invariants at ε = 1/2.
	if err := c.Validate(0.5, rankOf); err != nil {
		t.Fatal(err)
	}
	// The figure's printed rows charge each entry i·ε₁·η (TS[0] = 1 has
	// L = 0, U = 25; TS[1] = 2 has 0/75; TS[2] = 25 has 25/100). The exact
	// capture positions are tighter: 1 sits at P1's position 0, 25 at 24, 2
	// at P3's position 0 and 51 at 49 — a rank of 1, 2 and 49 in T.
	for i, want := range [][2]int64{{1, 24}, {2, 73}, {26, 98}} {
		if l, u := ts.Bounds(i); l != want[0] || u != want[1] {
			t.Errorf("TS[%d] = %d: L=%d U=%d, want %d/%d", i, ts.Value(i), l, u, want[0], want[1])
		}
	}
}

func TestFigure3QuickQuery(t *testing.T) {
	sums, stream, all := buildFigure3(t)
	slices.Sort(all)
	c := BuildPieces(sums, []StreamPiece{StreamPiece{}.Merge(stream)}, 0.25, 0)
	rankOf := func(v int64) int64 {
		return int64(sort.Search(len(all), func(i int) bool { return all[i] > v }))
	}
	// Lemma 3: |rank - r| ≤ 1.5·εN = 1.5·0.5·600 = 450 — loose here; check
	// the tighter empirical behaviour too (≤ εN = 300).
	for r := int64(1); r <= 600; r += 37 {
		v, err := c.QuickQuery(r)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(float64(rankOf(v) - r)); d > 450 {
			t.Errorf("r=%d: quick answer %d rank %d, |Δ|=%g > 1.5εN", r, v, rankOf(v), d)
		}
	}
}

func TestFigure3Filters(t *testing.T) {
	sums, stream, all := buildFigure3(t)
	slices.Sort(all)
	c := BuildPieces(sums, []StreamPiece{StreamPiece{}.Merge(stream)}, 0.25, 0)
	rankOf := func(v int64) int64 {
		return int64(sort.Search(len(all), func(i int) bool { return all[i] > v }))
	}
	// Lemma 4: rank(u) ≤ r ≤ rank(v), spread < 4εN = 1200 (trivial here);
	// check the containment property which is the load-bearing part.
	for r := int64(1); r <= 600; r += 23 {
		u, v, err := c.Filters(r)
		if err != nil {
			t.Fatal(err)
		}
		if u > v {
			t.Fatalf("r=%d: u=%d > v=%d", r, u, v)
		}
		ru, rv := rankOf(u), rankOf(v)
		// rank(u) ≤ r must hold unless u is the clamped global minimum.
		if ru > r && u != all[0] {
			t.Errorf("r=%d: rank(u=%d)=%d > r", r, u, ru)
		}
		if rv < r && v != all[len(all)-1] {
			t.Errorf("r=%d: rank(v=%d)=%d < r", r, v, rv)
		}
	}
}

// buildFixture builds a multi-partition store plus a live step, whole, over
// random data and returns everything an accurate query needs.
type fixture struct {
	sums []*partition.Summary
	ss   []int64
	all  []int64 // sorted
	m    int64
	eps  float64
}

func buildFixture(t *testing.T, seed int64, eps float64, steps, batchSize, streamSize int) fixture {
	t.Helper()
	dev := newDev(t)
	store, err := partition.NewStore(dev, partition.Config{Kappa: 3, Eps1: eps / 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var all []int64
	for step := 1; step <= steps; step++ {
		batch := make([]int64, batchSize)
		for i := range batch {
			batch[i] = rng.Int63n(1 << 24)
		}
		all = append(all, batch...)
		if _, err := store.AddBatch(batch, step); err != nil {
			t.Fatal(err)
		}
	}
	stream := make([]int64, streamSize)
	for i := range stream {
		stream[i] = rng.Int63n(1 << 24)
	}
	all = append(all, stream...)
	var ss []int64
	if streamSize > 0 {
		ss = StreamPiece{}.Merge(slices.Sorted(slices.Values(stream))).SS
	}
	slices.Sort(all)
	return fixture{sums: store.Entries(), ss: ss, all: all, m: int64(streamSize), eps: eps}
}

func (f fixture) rankOf(v int64) int64 {
	return int64(sort.Search(len(f.all), func(i int) bool { return f.all[i] > v }))
}

func TestCombinedBoundsRandom(t *testing.T) {
	f := buildFixture(t, 61, 0.1, 10, 500, 1000)
	c := f.combined()
	if err := c.Validate(f.eps, f.rankOf); err != nil {
		t.Fatal(err)
	}
}

// TestAccurateQueryGuarantee is invariant 7: accurate answers err by at most
// εm, the in-memory step counted exactly.
func TestAccurateQueryGuarantee(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		f := buildFixture(t, seed, 0.05, 12, 400, 800)
		c := f.combined()
		n := int64(len(f.all))
		bound := f.eps * float64(f.m)
		for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
			r := int64(math.Ceil(phi * float64(n)))
			v, cost, err := accurateOne(c, f.eps, r, QueryOptions{PinBlocks: true})
			if err != nil {
				t.Fatal(err)
			}
			// The answer's rank span must intersect [r-bound, r+bound]:
			// rank() counts duplicates up, so check both span ends.
			hi := f.rankOf(v)
			lo := int64(sort.Search(len(f.all), func(i int) bool { return f.all[i] >= v })) + 1
			if float64(hi) < float64(r)-bound || float64(lo) > float64(r)+bound {
				t.Errorf("seed=%d phi=%.2f r=%d: answer %d rank span [%d,%d] outside ±%.0f (cost %+v)",
					seed, phi, r, v, lo, hi, bound, cost)
			}
			if cost.Iterations > 64 {
				t.Errorf("bisection did not converge quickly: %d iterations", cost.Iterations)
			}
		}
	}
}

// TestAccurateQueryNoStream: with an empty stream the acceptance band is 0
// and answers must be exact quantiles.
func TestAccurateQueryNoStream(t *testing.T) {
	f := buildFixture(t, 71, 0.1, 8, 300, 0)
	c := BuildPieces(f.sums, onePiece(f.ss, 0), f.eps/2, 0)
	n := int64(len(f.all))
	for _, phi := range []float64{0.1, 0.5, 0.9, 1.0} {
		r := int64(math.Ceil(phi * float64(n)))
		v, _, err := accurateOne(c, f.eps, r, QueryOptions{PinBlocks: true})
		if err != nil {
			t.Fatal(err)
		}
		want := f.all[r-1] // exact quantile
		if v != want {
			t.Errorf("phi=%.1f: got %d, want exact %d", phi, v, want)
		}
	}
}

// TestAccurateQueryStreamOnly: no historical partitions at all.
func TestAccurateQueryStreamOnly(t *testing.T) {
	eps := 0.05
	rng := rand.New(rand.NewSource(73))
	var all []int64
	for i := 0; i < 5000; i++ {
		all = append(all, rng.Int63n(1<<20))
	}
	slices.Sort(all)
	c := BuildPieces(nil, []StreamPiece{StreamPiece{}.Merge(all)}, eps/2, 0)
	r := int64(2500)
	v, _, err := accurateOne(c, eps, r, QueryOptions{PinBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	got := int64(sort.Search(len(all), func(i int) bool { return all[i] > v }))
	if math.Abs(float64(got-r)) > eps*5000 {
		t.Errorf("stream-only: rank %d vs r=%d", got, r)
	}
}

func TestEmptyCombined(t *testing.T) {
	c := BuildPieces(nil, onePiece(nil, 0), 0.1, 0)
	if _, err := c.QuickQuery(1); err == nil {
		t.Error("quick on empty: want error")
	}
	if _, _, err := c.Filters(1); err == nil {
		t.Error("filters on empty: want error")
	}
	if _, _, err := accurateOne(c, 0.1, 1, QueryOptions{PinBlocks: true}); err == nil {
		t.Error("accurate on empty: want error")
	}
}

// TestSortedSummaryBand holds a stream piece to the capture rule and to
// what the query path asks of it, on step sizes around every ε₁'s 1/ε₁,
// values without ties, heavy duplicates and the int64 extremes. Whole, as a
// read holds it, the piece is the step once with its minimum twice, its L
// and U are both the exact rank and streamRank counts it exactly. Captured
// at ε₁, as it leaves the engine: ⌈1/ε₁⌉+1 entries, or m+1 where ε₁m < 1
// and the step is captured whole; entry i is the element at
// partition.CapturePos(i, m, ε₁), so its rank lies in Lemma 1's band
// [i·ε₁m, (i+1)·ε₁m], rounded outward to whole ranks (the first rank is 1,
// the last m), and is i (entry 0: 1) in a step captured whole; a Combined
// of the piece alone brackets every distinct value ±1 between L and U, at
// most ε₁m apart and equal where the piece captured every element.
func TestSortedSummaryBand(t *testing.T) {
	shapes := map[string]func(rng *rand.Rand) int64{
		"distinct": func(rng *rand.Rand) int64 { return rng.Int63n(1<<40) - 1<<39 },
		"dups":     func(rng *rand.Rand) int64 { return int64(rng.Intn(4)) * 1000 },
		"extremes": func(rng *rand.Rand) int64 {
			return []int64{math.MinInt64, math.MinInt64 + 1, 0, math.MaxInt64 - 1, math.MaxInt64}[rng.Intn(5)]
		},
	}
	for _, m := range []int{1, 2, 3, 4, 5, 999, 1000, 1999, 2000, 2001, 32768} {
		for _, eps1 := range []float64{0.0005, 0.025, 0.15, 0.5} {
			for name, gen := range shapes {
				rng := rand.New(rand.NewSource(int64(m)))
				data := make([]int64, m)
				for i := range data {
					data[i] = gen(rng)
				}
				slices.Sort(data)
				// rank(v) = |{x ≤ v}|; a value holds ranks first..rank(v).
				rank := func(v int64) int64 {
					return int64(sort.Search(m, func(i int) bool { return data[i] > v }))
				}
				whole := StreamPiece{}.Merge(data)
				if !slices.Equal(whole.SS, append([]int64{data[0]}, data...)) || whole.M != int64(m) {
					t.Fatalf("m=%d %s: the whole piece is not the step with its minimum twice", m, name)
				}
				ss := SortedSummary(data, eps1)
				if at := whole.At(eps1); !slices.Equal(at.SS, ss) || at.M != int64(m) {
					t.Fatalf("m=%d ε₁=%g %s: the whole piece at ε₁ is not SortedSummary's capture", m, eps1, name)
				}
				// ⌈1/ε₁⌉+1 entries, or the m+1 of a run captured whole.
				want := min(int(math.Ceil(1/eps1)), m) + 1
				if len(ss) != want || len(ss) != partition.Beta(int64(m), eps1) || ss[0] != data[0] || ss[len(ss)-1] != data[m-1] {
					t.Fatalf("m=%d ε₁=%g %s: %d entries from %d to %d; want %d from the minimum %d to the maximum %d",
						m, eps1, name, len(ss), ss[0], ss[len(ss)-1], want, data[0], data[m-1])
				}
				em := eps1 * float64(m)
				exact := em < 1 // every position captured
				for i, v := range ss {
					p := partition.CapturePos(i, int64(m), eps1)
					if v != data[p] {
						t.Fatalf("m=%d ε₁=%g %s: entry %d = %d, want the element at position %d, %d", m, eps1, name, i, v, p, data[p])
					}
					tol := 1e-9 * float64(m)
					lo := min(math.Floor(float64(i)*em-tol), float64(m))
					hi := max(math.Ceil(float64(i+1)*em+tol), 1)
					if exact {
						lo, hi = max(float64(i), 1), max(float64(i), 1)
					}
					if r := float64(p + 1); r < lo || r > hi {
						t.Fatalf("m=%d ε₁=%g %s: entry %d sits at rank %g, outside its band [%g, %g]", m, eps1, name, i, r, lo, hi)
					}
				}
				c := BuildPieces(nil, []StreamPiece{{SS: ss, M: int64(m)}}, eps1, 0)
				cw := BuildPieces(nil, []StreamPiece{whole}, eps1, 0)
				for i, x := range data {
					if i > 0 && data[i-1] == x {
						continue
					}
					for _, d := range []int64{-1, 0, 1} {
						v := x + d
						if d == -1 && x == math.MinInt64 || d == 1 && x == math.MaxInt64 {
							continue
						}
						r := rank(v)
						l, u := c.boundsAt(v)
						if l > r || u < r || float64(u-l) > em || exact && l != u {
							t.Fatalf("m=%d ε₁=%g %s: v=%d has rank %d, [L, U] = [%d, %d], ε₁m = %g", m, eps1, name, v, r, l, u, em)
						}
						if l, u := cw.boundsAt(v); l != r || u != r {
							t.Fatalf("m=%d %s: v=%d has rank %d, the whole piece's [L, U] = [%d, %d]", m, name, v, r, l, u)
						}
						if got := streamRank([]StreamPiece{whole}, v); got != r {
							t.Fatalf("m=%d %s: v=%d has rank %d, streamRank %d", m, name, v, r, got)
						}
					}
				}
			}
		}
	}
}

// Property: quick query error ≤ 1.5εN on random fixtures of varying shape
// (invariant 5).
func TestQuickQueryPropertyBound(t *testing.T) {
	f := buildFixture(t, 83, 0.1, 6, 200, 500)
	c := f.combined()
	n := int64(len(f.all))
	en := 1.5 * f.eps * float64(n)
	prop := func(rRaw uint32) bool {
		r := int64(rRaw)%n + 1
		v, err := c.QuickQuery(r)
		if err != nil {
			return false
		}
		hi := f.rankOf(v)
		lo := int64(sort.Search(len(f.all), func(i int) bool { return f.all[i] >= v })) + 1
		return float64(hi) >= float64(r)-en && float64(lo) <= float64(r)+en
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: filters always bracket the target rank (invariant 6).
func TestFiltersPropertySound(t *testing.T) {
	f := buildFixture(t, 89, 0.08, 6, 200, 500)
	c := f.combined()
	n := int64(len(f.all))
	prop := func(rRaw uint32) bool {
		r := int64(rRaw)%n + 1
		u, v, err := c.Filters(r)
		if err != nil {
			return false
		}
		if u > v {
			return false
		}
		ru, rv := f.rankOf(u), f.rankOf(v)
		okU := ru <= r || u == f.all[0]
		okV := rv >= r || v == f.all[len(f.all)-1]
		return okU && okV
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRankTarget pins the one φ→rank rule every read surface shares:
// ⌈φ·n⌉ clamped to [1, n], φ outside (0, 1] refused.
func TestRankTarget(t *testing.T) {
	for _, tc := range []struct {
		phi  float64
		n    int64
		want int64 // 0 = error
	}{
		{0.5, 1000, 500},
		{0.5, 1001, 501},   // fractional φ·n rounds up, not down
		{0.999, 10, 10},    // ⌈9.99⌉
		{0.0001, 10, 1},    // ⌈0.001⌉, never rank 0
		{1, 10, 10},        // φ = 1 is the maximum
		{0.3, 1, 1},        // n = 1: every φ is the one element
		{1, 1, 1},          //
		{0.1, 25, 3},       // ⌈2.5⌉
		{0, 10, 0},         // φ ≤ 0
		{-0.5, 10, 0},      //
		{1.0000001, 10, 0}, // φ > 1
		{7, 10, 0},         //
		{math.NaN(), 10, 0},
	} {
		got, err := RankTarget(tc.phi, tc.n)
		if (err != nil) != (tc.want == 0) || got != tc.want {
			t.Errorf("RankTarget(%g, %d) = %d, %v; want %d", tc.phi, tc.n, got, err, tc.want)
		}
	}
}
