package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/gk"
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

// buildFigure3 reproduces the paper's Figure 3 setup exactly:
// P1 = 1..100, P2 = 101..200, P3 = 2..201, stream = 401..600, ε = 1/2
// (ε₁ = 1/4, ε₂ = 1/8).
func buildFigure3(t *testing.T) (sums []*partition.Summary, ss []int64, all []int64) {
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

	// Stream 401..600 through GK at ε₂/2 = 1/16, then extract SS with
	// ε₂ = 1/8 → β₂ = 9 entries.
	g := gk.MustNew(1.0 / 16)
	stream := mk(401, 600)
	for _, v := range stream {
		g.Insert(v)
	}
	all = append(all, stream...)
	ss = StreamSummary(g, 0.125)
	return store.Entries(), ss, all
}

func TestFigure3Summaries(t *testing.T) {
	sums, ss, _ := buildFigure3(t)
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
	// Stream summary has β₂ = 9 entries starting at the exact minimum 401.
	if len(ss) != 9 {
		t.Errorf("len(SS) = %d, want 9", len(ss))
	}
	if ss[0] != 401 {
		t.Errorf("SS[0] = %d, want 401", ss[0])
	}
	// Lemma 1: SS[i] has rank within [i·ε₂m, (i+1)·ε₂m], m=200, ε₂m=25.
	for i := 1; i < len(ss); i++ {
		rank := ss[i] - 400 // stream is 401..600, rank of v is v-400
		lo, hi := int64(i*25), int64((i+1)*25)
		if rank < lo || rank > hi {
			t.Errorf("SS[%d]=%d has stream rank %d, want within [%d,%d]", i, ss[i], rank, lo, hi)
		}
	}
}

func TestFigure3Bounds(t *testing.T) {
	sums, ss, all := buildFigure3(t)
	slices.Sort(all)
	c := BuildPieces(sums, onePiece(ss, 200), 0.25, 0.125)
	if c.N() != 600 {
		t.Fatalf("N = %d", c.N())
	}
	ts := materialise(c)
	if ts.Len() != 3*5+9 {
		t.Fatalf("δ = %d, want 24", ts.Len())
	}
	rankOf := func(v int64) int64 {
		return int64(sort.Search(len(all), func(i int) bool { return all[i] > v }))
	}
	// Lemma 2 invariants at ε = 1/2.
	if err := c.Validate(0.5, rankOf); err != nil {
		t.Fatal(err)
	}
	// Spot-check against the figure's printed L/U rows: TS[0]=1 has L=0,
	// U=25; TS[2]=25 has L=25, U=100... the figure row for index 2 shows
	// L=25, U=100? The figure lists U_2=100. Verify the first three.
	l0, u0 := ts.Bounds(0)
	if l0 != 0 || u0 != 25 {
		t.Errorf("TS[0]: L=%g U=%g, want 0/25", l0, u0)
	}
	l1, u1 := ts.Bounds(1)
	if l1 != 0 || u1 != 75 {
		t.Errorf("TS[1]: L=%g U=%g, want 0/75", l1, u1)
	}
	l2, u2 := ts.Bounds(2)
	if l2 != 25 || u2 != 100 {
		t.Errorf("TS[2]: L=%g U=%g, want 25/100", l2, u2)
	}
}

func TestFigure3QuickQuery(t *testing.T) {
	sums, ss, all := buildFigure3(t)
	slices.Sort(all)
	c := BuildPieces(sums, onePiece(ss, 200), 0.25, 0.125)
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
	sums, ss, all := buildFigure3(t)
	slices.Sort(all)
	c := BuildPieces(sums, onePiece(ss, 200), 0.25, 0.125)
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

// engineLikeFixture builds a multi-partition store plus GK stream over
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
	eps1, eps2 := eps/2, eps/4
	store, err := partition.NewStore(dev, partition.Config{Kappa: 3, Eps1: eps1})
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
	g := gk.MustNew(eps2 / 2)
	for i := 0; i < streamSize; i++ {
		v := rng.Int63n(1 << 24)
		g.Insert(v)
		all = append(all, v)
	}
	ss := StreamSummary(g, eps2)
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
// ~1.25·εm; we assert 1.5·εm for slack.
func TestAccurateQueryGuarantee(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		f := buildFixture(t, seed, 0.05, 12, 400, 800)
		c := f.combined()
		n := int64(len(f.all))
		bound := 1.5 * f.eps * float64(f.m)
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
	c := BuildPieces(f.sums, onePiece(f.ss, 0), f.eps/2, f.eps/4)
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
	g := gk.MustNew(eps / 8)
	rng := rand.New(rand.NewSource(73))
	var all []int64
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 20)
		g.Insert(v)
		all = append(all, v)
	}
	slices.Sort(all)
	ss := StreamSummary(g, eps/4)
	c := BuildPieces(nil, onePiece(ss, 5000), eps/2, eps/4)
	r := int64(2500)
	v, _, err := accurateOne(c, eps, r, QueryOptions{PinBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	got := int64(sort.Search(len(all), func(i int) bool { return all[i] > v }))
	if math.Abs(float64(got-r)) > 1.5*eps*5000 {
		t.Errorf("stream-only: rank %d vs r=%d", got, r)
	}
}

func TestEmptyCombined(t *testing.T) {
	c := BuildPieces(nil, onePiece(nil, 0), 0.1, 0.1)
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

func TestStreamSummaryEmpty(t *testing.T) {
	g := gk.MustNew(0.1)
	if ss := StreamSummary(g, 0.2); ss != nil {
		t.Errorf("empty stream summary = %v", ss)
	}
}

// streamSummaryPerRank is the StreamSummary the one-scan extraction replaced
// — one gk.Query per rank, then a sort — kept as its differential oracle.
func streamSummaryPerRank(g *gk.Sketch, eps2 float64) []int64 {
	m := g.Count()
	if m == 0 {
		return nil
	}
	mn, _ := g.Min()
	ss := []int64{mn}
	em := eps2 * float64(m)
	for i := 1; i < beta(eps2); i++ {
		v, _ := g.Query(min(max(int64(float64(i)*em+em/2), 1), m))
		ss = append(ss, v)
	}
	slices.Sort(ss)
	return ss
}

// TestStreamSummaryMatchesPerRank: the one-scan summary equals the per-rank
// one on random sketches — every ε₂ the engine and benchmark run, stream
// sizes from one element to several flushes past compression, and value
// domains narrow enough for long ties and wide enough for none.
func TestStreamSummaryMatchesPerRank(t *testing.T) {
	base := propSeed(t)
	for i := 0; i < 300; i++ {
		seed := base + int64(i)
		rng := rand.New(rand.NewSource(seed))
		eps2 := []float64{0.00025, 0.0025, 0.01, 0.05}[rng.Intn(4)]
		m := 1 + rng.Intn(30000)
		if rng.Intn(4) == 0 {
			m = 1 + rng.Intn(20)
		}
		domain := int64(1) << (1 + rng.Intn(40))
		g := gk.MustNew(eps2 / 2)
		for j := 0; j < m; j++ {
			g.Insert(rng.Int63n(domain) - domain/2)
		}
		if got, want := StreamSummary(g, eps2), streamSummaryPerRank(g, eps2); !slices.Equal(got, want) {
			t.Fatalf("HSQ_PROP_SEED=%d (ε₂=%g, m=%d, domain=%d): one-scan summary differs from the per-rank one", seed, eps2, m, domain)
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
