package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/disk"
	"repro/internal/gk"
	"repro/internal/partition"
)

// onePiece is the single-stream-summary shape most tests use.
func onePiece(ss []int64, m int64) []StreamPiece {
	if m == 0 && len(ss) == 0 {
		return nil
	}
	return []StreamPiece{{SS: ss, M: m}}
}

func (f fixture) pieces() []StreamPiece { return onePiece(f.ss, f.m) }

func (f fixture) combined() *Combined {
	return BuildPieces(f.sums, f.pieces(), f.eps/2, f.eps/4)
}

// accurateOne is the k=1 case of the shared sweep.
func accurateOne(c *Combined, eps float64, r int64, opts QueryOptions) (int64, QueryCost, error) {
	ans, cost, err := AccurateMultiQueryOpts(c, eps, []int64{r}, opts)
	if err != nil {
		return 0, cost, err
	}
	return ans[0], cost, nil
}

// sortBuild is the builder BuildPieces replaced, kept as the reference
// oracle: concatenate every summary tagged with its source (-1-j for stream
// piece j, else the partition index), sort on (value, source), and sweep
// once with four running sums.
func sortBuild(sums []*partition.Summary, pieces []StreamPiece, eps1, eps2 float64) *Combined {
	type tsItem struct {
		v   int64
		src int
	}
	c := &Combined{sums: sums, streams: pieces, eps1: eps1, eps2: eps2}
	for _, s := range sums {
		c.histN += s.Part.Count
	}
	for _, p := range pieces {
		c.m += p.M
	}
	var items []tsItem
	for j, p := range pieces {
		for _, v := range p.SS {
			items = append(items, tsItem{v, -1 - j})
		}
	}
	for si, s := range sums {
		for _, v := range s.Values {
			items = append(items, tsItem{v, si})
		}
	}
	slices.SortFunc(items, func(a, b tsItem) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return a.src - b.src
		}
	})
	if len(items) == 0 {
		return c
	}
	c.ts.Values = make([]int64, len(items))
	c.ts.Lower = make([]float64, len(items))
	c.ts.Upper = make([]float64, len(items))
	var streamL, streamU float64 // Σ_j ε₂·m_j·b_j·(α_j∓1) terms
	var histL, histU float64     // Σ m_P·ε₁·(α_P−1) and Σ m_P·ε₁·α_P
	alphaS := make([]int, len(pieces))
	alphaP := make([]int, len(sums))
	for i, it := range items {
		if it.src < 0 {
			j := -1 - it.src
			em2 := eps2 * float64(pieces[j].M)
			alphaS[j]++
			if alphaS[j] == 1 {
				streamU += 2 * em2
			} else {
				streamL += em2
				streamU += em2
			}
		} else {
			w := float64(sums[it.src].Part.Count) * eps1
			alphaP[it.src]++
			if alphaP[it.src] == 1 {
				histU += w
			} else {
				histL += w
				histU += w
			}
		}
		c.ts.Values[i] = it.v
		c.ts.Lower[i] = streamL + histL
		c.ts.Upper[i] = streamU + histU
	}
	return c
}

// Validate checks a Combined's bound invariants against exact ranks
// provided by the caller (Lemma 2: L_i ≤ rank(TS[i]) ≤ U_i and
// U_i − L_i ≤ εN) on every entry. rankOf must return the exact rank in T.
func (c *Combined) Validate(eps float64, rankOf func(v int64) int64) error {
	return c.validate(eps, rankOf, false)
}

// validateLastOfTie is Validate on the last entry of each run of equal
// values only — all that holds when values repeat in TS. The sweep counts,
// for entry i, the summary elements at TS positions ≤ i, where the lemma's
// α counts those with value ≤ TS[i]: an earlier entry of a tie has seen
// only part of its tie group, so its L and its U are both short by the
// weight of the rest — safe for L, while its U can fall below the value's
// rank, and Filters may then pick that entry as its lower filter. This is a
// known defect of the bounds (ROADMAP.md, item 6), not of the merge: the
// sort-based builder had it too, and this PR keeps TS bit for bit.
func (c *Combined) validateLastOfTie(eps float64, rankOf func(v int64) int64) error {
	return c.validate(eps, rankOf, true)
}

func (c *Combined) validate(eps float64, rankOf func(v int64) int64, lastOfTie bool) error {
	en := eps * float64(c.N())
	for i, v := range c.ts.Values {
		if lastOfTie && i+1 < len(c.ts.Values) && c.ts.Values[i+1] == v {
			continue
		}
		ri := float64(rankOf(v))
		if c.ts.Lower[i] > ri+1e-9 {
			return fmt.Errorf("core: L_%d=%.1f > rank=%.0f (v=%d)", i, c.ts.Lower[i], ri, v)
		}
		if c.ts.Upper[i] < ri-1e-9 {
			return fmt.Errorf("core: U_%d=%.1f < rank=%.0f (v=%d)", i, c.ts.Upper[i], ri, v)
		}
		if c.ts.Upper[i]-c.ts.Lower[i] > en+1e-9 {
			return fmt.Errorf("core: U_%d-L_%d=%.1f > εN=%.1f", i, i, c.ts.Upper[i]-c.ts.Lower[i], en)
		}
	}
	return nil
}

// propSeed is the base seed of the randomized tests here; a failure prints
// the case's seed and HSQ_PROP_SEED replays it.
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

// randomRuns draws one merge input: 0–64 partition summaries and 0–4 stream
// pieces whose runs are empty, single or β long, over a value pool small
// enough that equal values recur across runs and inside one (as in
// summaries of partitions smaller than β₁), with the int64 extremes mixed
// in and pieces that are empty yet carry mass.
func randomRuns(rng *rand.Rand) ([]*partition.Summary, []StreamPiece) {
	beta := 2 + rng.Intn(40)
	pool := 1 + rng.Intn(3*beta)
	if rng.Intn(4) == 0 {
		pool = 1 << 30
	}
	run := func() []int64 {
		n := beta
		switch rng.Intn(6) {
		case 0:
			n = 0
		case 1:
			n = 1
		}
		vs := make([]int64, n)
		for i := range vs {
			switch rng.Intn(24) {
			case 0:
				vs[i] = math.MinInt64
			case 1:
				vs[i] = math.MaxInt64
			default:
				vs[i] = int64(rng.Intn(pool)) - int64(pool/2)
			}
			if i > 0 && rng.Intn(3) == 0 {
				vs[i] = vs[i-1]
			}
		}
		slices.Sort(vs)
		return vs
	}
	var sums []*partition.Summary
	for i, n := 0, rng.Intn(65); i < n; i++ {
		sums = append(sums, &partition.Summary{
			Part:   &partition.Partition{Count: int64(rng.Intn(5000))},
			Values: run(),
		})
	}
	var pieces []StreamPiece
	for i, n := 0, rng.Intn(5); i < n; i++ {
		pieces = append(pieces, StreamPiece{SS: run(), M: int64(rng.Intn(3000))})
	}
	return sums, pieces
}

// sameCombined reports the first difference between two combined summaries:
// every entry's value and bounds bit for bit, and every query a rank or
// value grid can ask of them.
func sameCombined(t *testing.T, got, want *Combined) bool {
	t.Helper()
	if got.Len() != want.Len() || got.N() != want.N() {
		t.Errorf("δ=%d N=%d, want δ=%d N=%d", got.Len(), got.N(), want.Len(), want.N())
		return false
	}
	for i := 0; i < want.Len(); i++ {
		gl, gu := got.Bounds(i)
		wl, wu := want.Bounds(i)
		if got.Value(i) != want.Value(i) ||
			math.Float64bits(gl) != math.Float64bits(wl) || math.Float64bits(gu) != math.Float64bits(wu) {
			t.Errorf("TS[%d] = (%d, %v, %v), want (%d, %v, %v)", i, got.Value(i), gl, gu, want.Value(i), wl, wu)
			return false
		}
	}
	n := want.N()
	for _, r := range []int64{-1, 0, 1, 2, n / 7, n / 3, n / 2, n - n/5, n - 1, n, n + 1} {
		gv, gerr := got.QuickQuery(r)
		wv, werr := want.QuickQuery(r)
		if gv != wv || (gerr == nil) != (werr == nil) {
			t.Errorf("QuickQuery(%d) = %d, %v; want %d, %v", r, gv, gerr, wv, werr)
			return false
		}
		gu, gw, gerr := got.Filters(r)
		wu, ww, werr := want.Filters(r)
		if gu != wu || gw != ww || (gerr == nil) != (werr == nil) {
			t.Errorf("Filters(%d) = %d, %d, %v; want %d, %d, %v", r, gu, gw, gerr, wu, ww, werr)
			return false
		}
	}
	for i := 0; i < want.Len(); i += 1 + want.Len()/16 {
		for _, v := range []int64{want.Value(i), want.Value(i) - 1} {
			if g, w := got.QuickRank(v), want.QuickRank(v); g != w {
				t.Errorf("QuickRank(%d) = %d, want %d", v, g, w)
				return false
			}
		}
	}
	return true
}

// TestMergeMatchesSort is the differential test of the merge kernel: on
// random inputs BuildPieces must give, entry for entry and bit for bit,
// what the sort-based builder gave — and so must MergeShardSummaries, which
// feeds the same kernel from (count, values) runs.
func TestMergeMatchesSort(t *testing.T) {
	cases := 12000
	if testing.Short() {
		cases = 2000
	}
	base := propSeed(t)
	for i := 0; i < cases; i++ {
		seed := base + int64(i)
		sums, pieces := randomRuns(rand.New(rand.NewSource(seed)))
		const eps1, eps2 = 0.01, 0.005
		want := sortBuild(sums, pieces, eps1, eps2)
		if !sameCombined(t, BuildPieces(sums, pieces, eps1, eps2), want) {
			t.Fatalf("BuildPieces differs from the sort oracle: HSQ_PROP_SEED=%d (%d summaries, %d pieces)", seed, len(sums), len(pieces))
		}
		if i%8 != 0 {
			continue
		}
		// The same sources split over two shards, in order.
		cut, pcut := len(sums)/2, len(pieces)/2
		shards := []*ShardSummary{{Eps1: eps1, Eps2: eps2}, {Eps1: eps1, Eps2: eps2}}
		for j, s := range sums {
			sh := shards[b2i(j >= cut)]
			sh.Parts = append(sh.Parts, PartSummary{Count: s.Part.Count, Values: s.Values})
		}
		for j, p := range pieces {
			sh := shards[b2i(j >= pcut)]
			sh.Pieces = append(sh.Pieces, p)
		}
		for _, sh := range shards {
			sh.N = 1 // non-empty: merged even when every count drew 0
		}
		merged, _, err := MergeShardSummaries(shards)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCombined(t, merged, want) {
			t.Fatalf("MergeShardSummaries differs from the sort oracle: HSQ_PROP_SEED=%d", seed)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// memStore is a heap-backed store with the given steps installed.
func memStore(t testing.TB, eps1 float64, kappa int, batches [][]int64) *partition.Store {
	t.Helper()
	dev, err := disk.NewManagerOn(disk.NewMemBackend(), 64)
	if err != nil {
		t.Fatal(err)
	}
	store, err := partition.NewStore(dev, partition.Config{Kappa: kappa, Eps1: eps1})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if _, err := store.AddBatch(b, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// TestMergedBoundsHoldLemma2 checks Lemma 2 on real summaries, against
// exact ranks: stores of one to four steps of 1/ε₁ elements (the smallest
// repeat an element in their summary), zero to three stream pieces, a small
// value domain. ε is a power of two and every partition a multiple of 1/ε₁,
// so each summary element sits at rank i·ε₁·η exactly; other sizes capture
// ⌊i·ε₁·η⌋, which the bounds — sort-built or merged alike — overstate by up
// to one rank per partition (CHANGES.md, PR 13's open finding).
func TestMergedBoundsHoldLemma2(t *testing.T) {
	base := propSeed(t)
	for i := 0; i < 400; i++ {
		seed := base + int64(i)
		rng := rand.New(rand.NewSource(seed))
		eps := []float64{1. / 4, 1. / 8, 1. / 16}[rng.Intn(3)]
		eps1, eps2 := eps/2, eps/4
		domain := int64(1 + rng.Intn(2000))
		var all []int64
		draw := func(n int) []int64 {
			vs := make([]int64, n)
			for i := range vs {
				vs[i] = rng.Int63n(domain)
			}
			all = append(all, vs...)
			return vs
		}
		var batches [][]int64
		for s, n := 0, rng.Intn(14); s < n; s++ {
			batches = append(batches, draw((1+rng.Intn(4))*int(1/eps1)))
		}
		store := memStore(t, eps1, 2+rng.Intn(3), batches)
		var pieces []StreamPiece
		for p, n := 0, rng.Intn(4); p < n; p++ {
			g := gk.MustNew(eps2 / 2)
			vs := draw(1 + rng.Intn(3000))
			for _, v := range vs {
				g.Insert(v)
			}
			pieces = append(pieces, StreamPiece{SS: StreamSummary(g, eps2), M: int64(len(vs))})
		}
		slices.Sort(all)
		rankOf := func(v int64) int64 {
			return int64(sort.Search(len(all), func(i int) bool { return all[i] > v }))
		}
		c := BuildPieces(store.Entries(), pieces, eps1, eps2)
		if c.N() != int64(len(all)) {
			t.Fatalf("HSQ_PROP_SEED=%d: N = %d, want %d", seed, c.N(), len(all))
		}
		if err := c.validateLastOfTie(eps, rankOf); err != nil {
			t.Fatalf("HSQ_PROP_SEED=%d: %v", seed, err)
		}
		if !sameCombined(t, c, sortBuild(store.Entries(), pieces, eps1, eps2)) {
			t.Fatalf("HSQ_PROP_SEED=%d: differs from the sort oracle", seed)
		}
	}
}

// TestTieBoundsHoldOnEveryEntry is the smallest case of the known tie
// defect (see validateLastOfTie; ROADMAP.md, item 6): two partitions of four
// 7s at ε₁ = ¼ give a TS of ten 7s whose first entry has U = 1 against a
// rank of 8. Skipped until the bounds give every entry of a tie the tie's
// last L and U — which changes TS, so not in a PR that must keep it bit for
// bit.
func TestTieBoundsHoldOnEveryEntry(t *testing.T) {
	t.Skip("known defect: early entries of a tie carry the bounds of a prefix of the tie")
	part := func() *partition.Summary {
		return &partition.Summary{Part: &partition.Partition{Count: 4}, Values: []int64{7, 7, 7, 7, 7}}
	}
	c := BuildPieces([]*partition.Summary{part(), part()}, nil, 0.25, 0.125)
	if err := c.Validate(0.5, func(int64) int64 { return 8 }); err != nil {
		t.Fatal(err)
	}
}

// benchRuns is a measured shape: parts summaries of per entries each over
// partitions of count elements (count < per repeats elements, as summaries
// of partitions smaller than β₁ do).
func benchRuns(parts, per int, count int64) []*partition.Summary {
	rng := rand.New(rand.NewSource(1))
	sums := make([]*partition.Summary, parts)
	for i := range sums {
		vs := make([]int64, per)
		for j := range vs {
			if count < int64(per) && j%2 == 1 {
				vs[j] = vs[j-1]
				continue
			}
			vs[j] = int64(rng.NormFloat64()*1e6 + 1e7)
		}
		slices.Sort(vs)
		sums[i] = &partition.Summary{Part: &partition.Partition{Count: count}, Values: vs}
	}
	return sums
}

// BenchmarkBuildPieces prices the TS build on the two shapes the e2e
// benchmark reads: one group of a merged fleet plan (≈700 summaries of
// 1000-value steps at ε = 0.001, so β₁ = 2001), and one deep stream (≈20
// partitions plus the live stream's piece).
func BenchmarkBuildPieces(b *testing.B) {
	const eps1, eps2 = 0.0005, 0.00025
	piece := make([]int64, 4001)
	for i := range piece {
		piece[i] = int64(i) * 5000
	}
	for _, bc := range []struct {
		name   string
		sums   []*partition.Summary
		pieces []StreamPiece
	}{
		{"fleet", benchRuns(700, 2001, 1000), nil},
		{"deep", benchRuns(20, 2001, 40000), []StreamPiece{{SS: piece, M: 20000}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildPieces(bc.sums, bc.pieces, eps1, eps2)
			}
		})
		b.Run(bc.name+"/sort-oracle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sortBuild(bc.sums, bc.pieces, eps1, eps2)
			}
		})
	}
}
