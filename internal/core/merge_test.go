package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/disk"
	"repro/internal/oracle"
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
	return BuildPieces(f.sums, f.pieces(), f.eps/2, 0)
}

// accurateOne is the k=1 case of the shared sweep.
func accurateOne(c *Combined, eps float64, r int64, opts QueryOptions) (int64, QueryCost, error) {
	ans, cost, err := AccurateMultiQueryOpts(c, eps, []int64{r}, opts)
	if err != nil {
		return 0, cost, err
	}
	return ans[0], cost, nil
}

// This file holds the oracle of the selector: TS materialised, as every read
// built it before the selector — a stable k-way merge of the sorted runs
// with (L_i, U_i) swept per entry — and the sort-based builder that merge
// replaced, which checks the merge in turn. Both count, for entry i, the
// summary elements at TS positions ≤ i where Lemma 2's α counts those with
// value ≤ TS[i]: the last entry of a run of equal values carries exactly
// L(v) and U(v), earlier ones the bounds of a prefix of the tie, whose U can
// fall below the value's rank. The selector has no such entries; where the
// two differ, the tie must explain it. A run's share of the bounds at α is
// the capture positions of its entries α−1 and α (sortedRun.bound); the
// sort-based builder spells that rule out again from partition.CapturePos.

// mergedRuns is TS: the sorted union of runs with, per entry, the Lemma 2
// bounds the runs' elements up to it add up to.
type mergedRuns struct {
	Values       []int64
	Lower, Upper []int64
}

// materialise merges the runs c selects over.
func materialise(c *Combined) mergedRuns { return mergeRuns(c.runs) }

// Len returns δ, the number of TS entries.
func (ms mergedRuns) Len() int { return len(ms.Values) }

// Value returns TS[i].
func (ms mergedRuns) Value(i int) int64 { return ms.Values[i] }

// Bounds returns (L_i, U_i).
func (ms mergedRuns) Bounds(i int) (int64, int64) { return ms.Lower[i], ms.Upper[i] }

// lastOfTie reports whether no later entry has entry i's value.
func (ms mergedRuns) lastOfTie(i int) bool {
	return i+1 == len(ms.Values) || ms.Values[i+1] != ms.Values[i]
}

// QuickQuery is Algorithm 5 over the array: TS[j] for the smallest j with
// L_j ≥ r, or the last element if none.
func (ms mergedRuns) QuickQuery(r int64) int64 {
	j := sort.Search(len(ms.Lower), func(i int) bool { return ms.Lower[i] >= r })
	return ms.Values[min(j, len(ms.Lower)-1)]
}

// Filters is Algorithm 7 over the array: u = TS[x] for the largest x with
// U_x ≤ r (the first entry if none), v as QuickQuery. strict restricts x to
// the last entry of a tie, whose U is U(v).
func (ms mergedRuns) Filters(r int64, strict bool) (u, v int64) {
	x := sort.Search(len(ms.Upper), func(i int) bool { return ms.Upper[i] > r }) - 1
	if strict && x >= 0 && !ms.lastOfTie(x) {
		x = sort.Search(x, func(i int) bool { return ms.Values[i] == ms.Values[x] }) - 1
	}
	u, v = ms.Values[max(x, 0)], ms.QuickQuery(r)
	return min(u, v), max(u, v)
}

// QuickRank is the midpoint of the bounds of the largest TS entry ≤ v.
func (ms mergedRuns) QuickRank(v int64) int64 {
	i := sort.Search(len(ms.Values), func(i int) bool { return ms.Values[i] > v }) - 1
	if i < 0 {
		return 0
	}
	return (ms.Lower[i] + ms.Upper[i]) / 2
}

// runLen is the number of elements in runs.
func runLen(runs []sortedRun) int {
	n := 0
	for _, r := range runs {
		n += len(r.vals)
	}
	return n
}

// mergeRuns merges the runs stably — ties go to the earlier run, so the
// output is element for element what sorting on (value, run) gives — and
// sweeps the result once for L and U: each element moves its run's α up by
// one, and the sums by what that moves the run's share of the bounds.
func mergeRuns(runs []sortedRun) mergedRuns {
	total := runLen(runs)
	if total == 0 {
		return mergedRuns{}
	}
	// An element travels as (value, tag): the tag is its run — all the
	// sweep needs to know about where it came from.
	vals, tags := make([]int64, total), make([]uint32, total)
	if mid := len(runs) / 2; mid == 0 {
		mergeInto(runs, 0, vals, tags, nil, nil)
	} else {
		// The top merge runs in place: the right half is built where it
		// ends up, the left half in scratch, and merging forward never
		// writes past the right half's read position.
		nl := runLen(runs[:mid])
		n := max(nl, total-nl)
		sv, st := make([]int64, n), make([]uint32, n)
		mergeInto(runs[mid:], mid, vals[nl:], tags[nl:], sv[:total-nl], st[:total-nl])
		mergeInto(runs[:mid], 0, sv[:nl], st[:nl], vals[:nl], tags[:nl])
		merge2(vals, tags, sv[:nl], st[:nl], vals[nl:], tags[nl:])
	}

	ms := mergedRuns{Values: vals, Lower: make([]int64, total), Upper: make([]int64, total)}
	alpha := make([]int, len(runs))
	var l, u int64
	for i, t := range tags {
		r := &runs[t]
		a := alpha[t]
		l += r.bound(a+1, false) - r.bound(a, false)
		u += r.bound(a+1, true) - r.bound(a, true)
		alpha[t]++
		ms.Lower[i], ms.Upper[i] = l, u
	}
	return ms
}

// mergeInto writes the stable merge of runs, tagged from run index base,
// into (dv, dt), with (tv, tt) of the same length as scratch. The recursion
// is depth-first, so a subtree's passes run while its elements are still in
// cache; every element is moved ⌈log₂ k⌉ times.
func mergeInto(runs []sortedRun, base int, dv []int64, dt []uint32, tv []int64, tt []uint32) {
	if len(runs) == 1 {
		copy(dv, runs[0].vals)
		for i := range dt {
			dt[i] = uint32(base)
		}
		return
	}
	mid := len(runs) / 2
	nl := runLen(runs[:mid])
	mergeInto(runs[:mid], base, tv[:nl], tt[:nl], dv[:nl], dt[:nl])
	mergeInto(runs[mid:], base+mid, tv[nl:], tt[nl:], dv[nl:], dt[nl:])
	merge2(dv, dt, tv[:nl], tt[:nl], tv[nl:], tt[nl:])
}

// merge2 merges (av, at) and (bv, bt) into (dv, dt); a wins ties. b may be
// the tail of d itself: an output slot is written only after the b element
// that could sit there was read. The loop body is written as selects so the
// compiler emits conditional moves: which side is next is a coin flip on
// real data, and a mispredicted branch per element costs more than the
// whole move.
func merge2(dv []int64, dt []uint32, av []int64, at []uint32, bv []int64, bt []uint32) {
	na, nb := len(av), len(bv)
	at, bt, dt = at[:na], bt[:nb], dt[:len(dv)]
	i, j, k := 0, 0, 0
	for i < na && j < nb {
		x, y, tx, ty := av[i], bv[j], at[i], bt[j]
		v, t, d := x, tx, 0
		if y < x {
			v = y
		}
		if y < x {
			t = ty
		}
		if y < x {
			d = 1
		}
		dv[k], dt[k] = v, t
		i += 1 - d
		j += d
		k++
	}
	copy(dv[k:], av[i:])
	k += copy(dt[k:], at[i:])
	copy(dv[k:], bv[j:])
	copy(dt[k:], bt[j:])
}

// sortBuild is the builder the merge replaced, kept as its reference:
// concatenate every summary tagged with its run (stream pieces in index
// order, then partitions), sort on (value, run), and sweep once counting α
// per run, each run's share of the bounds recomputed from its α: L the
// position of its α-th entry plus one, U the position of the next, or the
// run's count once it has none. A piece of M+1 entries is whole, its
// entries at the positions of ε = 0; any other run is captured at ε₁.
func sortBuild(sums []*partition.Summary, pieces []StreamPiece, eps1 float64) mergedRuns {
	type tsItem struct {
		v   int64
		src int
	}
	var items []tsItem
	for j, p := range pieces {
		for _, v := range p.SS {
			items = append(items, tsItem{v, j})
		}
	}
	for si, s := range sums {
		for _, v := range s.Values {
			items = append(items, tsItem{v, len(pieces) + si})
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
	// share is a run's (L, U) with a of its entries ≤ v.
	share := func(src, a int) (int64, int64) {
		n, entries, eps := int64(0), 0, eps1
		if src < len(pieces) {
			n, entries = pieces[src].M, len(pieces[src].SS)
			if int64(entries) == n+1 {
				eps = 0
			}
		} else {
			s := sums[src-len(pieces)]
			n, entries, eps = s.Part.Count, len(s.Values), eps1
		}
		if a == 0 || n == 0 {
			return 0, 0
		}
		l := partition.CapturePos(a-1, n, eps) + 1
		if a == entries {
			return l, n
		}
		return l, partition.CapturePos(a, n, eps)
	}
	var ms mergedRuns
	alpha := make([]int, len(pieces)+len(sums))
	ls, us := make([]int64, len(alpha)), make([]int64, len(alpha))
	var l, u int64
	for _, it := range items {
		alpha[it.src]++
		nl, nu := share(it.src, alpha[it.src])
		l, u = l+nl-ls[it.src], u+nu-us[it.src]
		ls[it.src], us[it.src] = nl, nu
		ms.Values, ms.Lower, ms.Upper = append(ms.Values, it.v), append(ms.Lower, l), append(ms.Upper, u)
	}
	return ms
}

// Validate checks Lemma 2 on every distinct summary value against exact
// ranks provided by the caller: L(v) ≤ rank(v) ≤ U(v) and U(v) − L(v) ≤ εN.
// rankOf must return the exact rank in T.
func (c *Combined) Validate(eps float64, rankOf func(v int64) int64) error {
	en := eps * float64(c.N())
	for _, r := range c.runs {
		for i, v := range r.vals {
			if i > 0 && v == r.vals[i-1] {
				continue
			}
			l, u := c.boundsAt(v)
			switch ri := rankOf(v); {
			case l > ri:
				return fmt.Errorf("core: L(%d)=%d > rank=%d", v, l, ri)
			case u < ri:
				return fmt.Errorf("core: U(%d)=%d < rank=%d", v, u, ri)
			case float64(u-l) > en:
				return fmt.Errorf("core: U(%d)-L(%d)=%d > εN=%.1f", v, v, u-l, en)
			}
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

// randomRuns draws one selector input: 0–64 partition summaries (one case
// in 32: up to 700, a fleet group's worth) and 0–4 stream pieces, each run
// as long as the capture rule makes it at ε₁ for its mass, or, for half the
// pieces, whole (an engine's in-memory step) — half of them of at most 40
// elements, captured whole at ε₁ ≥ 0.025 — over a value pool small enough
// that equal values recur across runs and inside one, in one case of four
// with the int64 extremes mixed in.
func randomRuns(rng *rand.Rand, eps1 float64) ([]*partition.Summary, []StreamPiece) {
	short := 2 + rng.Intn(40)
	pool := 1 + rng.Intn(3*short)
	if rng.Intn(4) == 0 {
		pool = 1 << 30
	}
	extremes := rng.Intn(4) == 0
	mass := func(limit int) int64 {
		if rng.Intn(2) == 0 {
			return int64(rng.Intn(short))
		}
		return int64(rng.Intn(limit))
	}
	run := func(count int64, eps float64) []int64 {
		vs := make([]int64, partition.Beta(count, eps))
		for i := range vs {
			switch vs[i] = int64(rng.Intn(pool)) - int64(pool/2); {
			case !extremes:
			case rng.Intn(24) == 0:
				vs[i] = math.MinInt64
			case rng.Intn(24) == 0:
				vs[i] = math.MaxInt64
			}
			if i > 0 && rng.Intn(3) == 0 {
				vs[i] = vs[i-1]
			}
		}
		slices.Sort(vs)
		return vs
	}
	parts := rng.Intn(65)
	if rng.Intn(32) == 0 {
		parts = rng.Intn(701)
	}
	var sums []*partition.Summary
	for i := 0; i < parts; i++ {
		count := mass(5000)
		sums = append(sums, &partition.Summary{Part: &partition.Partition{Count: count}, Values: run(count, eps1)})
	}
	var pieces []StreamPiece
	for i, n := 0, rng.Intn(5); i < n; i++ {
		m, eps := mass(3000), eps1
		if rng.Intn(2) == 0 {
			eps = 0 // whole: Beta gives m+1 entries
		}
		pieces = append(pieces, StreamPiece{SS: run(m, eps), M: m})
	}
	return sums, pieces
}

// twoShards splits the sources over two shards, in order. Both count as
// non-empty, so they are merged even when every count drew 0.
func twoShards(sums []*partition.Summary, pieces []StreamPiece, eps1 float64) []*ShardSummary {
	shards := []*ShardSummary{{N: 1, Eps1: eps1}, {N: 1, Eps1: eps1}}
	for j, s := range sums {
		sh := shards[b2i(j >= len(sums)/2)]
		sh.Parts = append(sh.Parts, PartSummary{Count: s.Part.Count, Values: s.Values})
	}
	for j, p := range pieces {
		sh := shards[b2i(j >= len(pieces)/2)]
		sh.Pieces = append(sh.Pieces, p)
	}
	return shards
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sameTS reports the first difference between two materialised summaries:
// every entry's value and bounds.
func sameTS(t *testing.T, got, want mergedRuns) bool {
	t.Helper()
	if got.Len() != want.Len() {
		t.Errorf("δ=%d, want %d", got.Len(), want.Len())
		return false
	}
	for i := 0; i < want.Len(); i++ {
		gl, gu := got.Bounds(i)
		wl, wu := want.Bounds(i)
		if got.Value(i) != want.Value(i) || gl != wl || gu != wu {
			t.Errorf("TS[%d] = (%d, %d, %d), want (%d, %d, %d)", i, got.Value(i), gl, gu, want.Value(i), wl, wu)
			return false
		}
	}
	return true
}

// TestMergeMatchesSort checks the oracle: on random inputs the merge must
// give, entry for entry, what the sort-based builder gives,
// from BuildPieces' runs and from MergeShardSummaries' alike.
func TestMergeMatchesSort(t *testing.T) {
	cases := 12000
	if testing.Short() {
		cases = 2000
	}
	base := propSeed(t)
	for i := 0; i < cases; i++ {
		seed := base + int64(i)
		const eps1 = 0.025
		sums, pieces := randomRuns(rand.New(rand.NewSource(seed)), eps1)
		want := sortBuild(sums, pieces, eps1)
		if !sameTS(t, materialise(BuildPieces(sums, pieces, eps1, 0)), want) {
			t.Fatalf("the merge of BuildPieces' runs differs from the sort oracle: HSQ_PROP_SEED=%d (%d summaries, %d pieces)", seed, len(sums), len(pieces))
		}
		if i%8 != 0 {
			continue
		}
		merged, _, err := MergeShardSummaries(twoShards(sums, pieces, eps1))
		if err != nil {
			t.Fatal(err)
		}
		if !sameTS(t, materialise(merged), want) {
			t.Fatalf("the merge of MergeShardSummaries' runs differs from the sort oracle: HSQ_PROP_SEED=%d", seed)
		}
	}
}

// selectsLike reports the first selection on which c differs from its
// materialised TS: the quick value, both filters, the extremes and the
// quick rank, on rs and vs plus every rank and value the sampled entries
// put on a boundary. The quick value, v and the quick rank must be equal
// always. u must equal the array's taken at the last entry of a tie; where
// the array's plain u — any entry — is another, it must be an earlier entry
// of a tie that was picked, the defect the selector does not have.
func selectsLike(t *testing.T, c *Combined, ts mergedRuns, rng *rand.Rand) bool {
	t.Helper()
	if ts.Len() == 0 {
		_, qerr := c.QuickQuery(1)
		_, _, ferr := c.Filters(1)
		if qerr == nil || ferr == nil || c.QuickRank(0) != 0 {
			t.Errorf("empty summary: QuickQuery err %v, Filters err %v, QuickRank %d", qerr, ferr, c.QuickRank(0))
			return false
		}
		return true
	}
	if lo := c.minV; lo != ts.Value(0) {
		t.Errorf("minV = %d, want %d", lo, ts.Value(0))
		return false
	}
	if hi := c.maxV; hi != ts.Value(ts.Len()-1) {
		t.Errorf("maxV = %d, want %d", hi, ts.Value(ts.Len()-1))
		return false
	}
	n := c.N()
	rs := []int64{-1, 0, 1, 2, n / 7, n / 3, n / 2, n - n/5, n - 1, n, n + 1}
	vs := []int64{math.MinInt64, math.MaxInt64, 0}
	for j := 0; j < 6; j++ {
		rs = append(rs, 1+rng.Int63n(max(n, 1)))
		i := rng.Intn(ts.Len())
		l, u := ts.Bounds(i)
		rs = append(rs, l, l+1, u, u+1)
		vs = append(vs, ts.Value(i), ts.Value(i)-1, ts.Value(i)+1)
		if !ts.lastOfTie(i) {
			continue
		}
		if gl, gu := c.boundsAt(ts.Value(i)); gl != l || gu != u {
			t.Errorf("bounds at %d = (%d, %d), want TS[%d]'s (%d, %d)", ts.Value(i), gl, gu, i, l, u)
			return false
		}
	}
	for _, r := range rs {
		q, err := c.QuickQuery(r)
		if want := ts.QuickQuery(r); err != nil || q != want {
			t.Errorf("QuickQuery(%d) = %d, %v; want %d", r, q, err, want)
			return false
		}
		u, v, err := c.Filters(r)
		wantU, wantV := ts.Filters(r, true)
		if err != nil || u != wantU || v != wantV {
			t.Errorf("Filters(%d) = %d, %d, %v; want %d, %d", r, u, v, err, wantU, wantV)
			return false
		}
		if plainU, _ := ts.Filters(r, false); plainU != wantU {
			x := sort.Search(ts.Len(), func(i int) bool { return ts.Upper[i] > r }) - 1
			if ts.lastOfTie(x) || plainU < wantU {
				t.Errorf("Filters(%d): u = %d where the array picks TS[%d] = %d, which ends its tie", r, u, x, plainU)
				return false
			}
		}
	}
	for _, v := range vs {
		if g, w := c.QuickRank(v), ts.QuickRank(v); g != w {
			t.Errorf("QuickRank(%d) = %d, want %d", v, g, w)
			return false
		}
	}
	return true
}

// TestSelectMatchesMerge is the differential test of the selector: on
// random runs — k from 1 to 700, duplicate-heavy, captured whole or not,
// and empty ones — every selection over BuildPieces' and
// MergeShardSummaries' runs equals the one over their materialised merge
// (see selectsLike for what equal means on ties).
func TestSelectMatchesMerge(t *testing.T) {
	cases := 12000
	if testing.Short() {
		cases = 2000
	}
	base := propSeed(t)
	for i := 0; i < cases; i++ {
		seed := base + int64(i)
		rng := rand.New(rand.NewSource(seed))
		const eps1 = 0.025
		sums, pieces := randomRuns(rng, eps1)
		c := BuildPieces(sums, pieces, eps1, 0)
		if !selectsLike(t, c, materialise(c), rng) {
			t.Fatalf("BuildPieces selects unlike its merge: HSQ_PROP_SEED=%d (%d summaries, %d pieces)", seed, len(sums), len(pieces))
		}
		if i%8 != 0 {
			continue
		}
		merged, _, err := MergeShardSummaries(twoShards(sums, pieces, eps1))
		if err != nil {
			t.Fatal(err)
		}
		if !selectsLike(t, merged, materialise(merged), rng) {
			t.Fatalf("MergeShardSummaries selects unlike its merge: HSQ_PROP_SEED=%d", seed)
		}
	}
}

// TestSelectToleratesEmptyRuns: a run with mass and no elements bounds
// nothing — it counts toward N and is otherwise as if absent — whether it
// arrives through BuildPieces or in a shard summary.
func TestSelectToleratesEmptyRuns(t *testing.T) {
	const eps1 = 0.25
	part := func(count int64, vals ...int64) *partition.Summary {
		return &partition.Summary{Part: &partition.Partition{Count: count}, Values: vals}
	}
	for _, tc := range []struct {
		name   string
		sums   []*partition.Summary
		pieces []StreamPiece
		n      int64
		empty  bool
	}{
		{"only empty part", []*partition.Summary{part(8)}, nil, 8, true},
		{"only empty piece", nil, []StreamPiece{{M: 8}}, 8, true},
		{"empty part beside a part", []*partition.Summary{part(8), part(4, 1, 2, 3, 4, 5)}, nil, 12, false},
		{"empty piece beside a part", []*partition.Summary{part(4, 1, 2, 3, 4, 5)}, []StreamPiece{{M: 8}}, 12, false},
		{"empty part beside a piece", []*partition.Summary{part(8)}, []StreamPiece{{SS: []int64{7, 9}, M: 2}}, 10, false},
	} {
		sh := &ShardSummary{N: tc.n, Eps1: eps1, Pieces: tc.pieces}
		for _, s := range tc.sums {
			sh.Parts = append(sh.Parts, PartSummary{Count: s.Part.Count, Values: s.Values})
		}
		merged, _, err := MergeShardSummaries([]*ShardSummary{sh})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, c := range []*Combined{BuildPieces(tc.sums, tc.pieces, eps1, 0), merged} {
			if c.N() != tc.n {
				t.Errorf("%s: N = %d, want %d", tc.name, c.N(), tc.n)
			}
			if _, err := c.QuickQuery(1); (err != nil) != tc.empty {
				t.Errorf("%s: QuickQuery error %v, want empty = %v", tc.name, err, tc.empty)
			}
			if !selectsLike(t, c, materialise(c), rand.New(rand.NewSource(1))) {
				t.Errorf("%s: selects unlike its merge", tc.name)
			}
		}
	}
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
// exact ranks: stores of up to thirteen steps of sizes below, at and above
// 1/ε₁ and of no alignment to it, zero to three stream pieces (whole, as an
// engine holds them, or at ε₁, as one travels), dyadic and
// non-dyadic ε (1/161 among them, where ⌈1/ε⌉·ε rounds below 1 in float),
// a small value domain — so ties, inside a summary and across them, are the
// common case, and every distinct value's bounds must hold: L ≤ rank ≤ U,
// U − L ≤ εN.
func TestMergedBoundsHoldLemma2(t *testing.T) {
	base := propSeed(t)
	for i := 0; i < 400; i++ {
		seed := base + int64(i)
		rng := rand.New(rand.NewSource(seed))
		eps := []float64{1. / 4, 1. / 8, 1. / 16, 0.3, 0.1, 0.06, 1. / 6, 2. / 161}[rng.Intn(8)]
		eps1 := eps / 2
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
			batches = append(batches, draw(1+rng.Intn(3*int(math.Ceil(1/eps1)))))
		}
		store := memStore(t, eps1, 2+rng.Intn(3), batches)
		var pieces []StreamPiece
		for p, n := 0, rng.Intn(4); p < n; p++ {
			p := StreamPiece{}.Merge(slices.Sorted(slices.Values(draw(1 + rng.Intn(3000)))))
			if rng.Intn(2) == 0 {
				p = p.At(eps1)
			}
			pieces = append(pieces, p)
		}
		slices.Sort(all)
		rankOf := func(v int64) int64 {
			return int64(sort.Search(len(all), func(i int) bool { return all[i] > v }))
		}
		c := BuildPieces(store.Entries(), pieces, eps1, 0)
		if c.N() != int64(len(all)) {
			t.Fatalf("HSQ_PROP_SEED=%d: N = %d, want %d", seed, c.N(), len(all))
		}
		if err := c.Validate(eps, rankOf); err != nil {
			t.Fatalf("HSQ_PROP_SEED=%d (ε = %g): %v", seed, eps, err)
		}
		ts := materialise(c)
		if !sameTS(t, ts, sortBuild(store.Entries(), pieces, eps1)) {
			t.Fatalf("HSQ_PROP_SEED=%d: the merge differs from the sort oracle", seed)
		}
		if !selectsLike(t, c, ts, rng) {
			t.Fatalf("HSQ_PROP_SEED=%d: selects unlike its merge", seed)
		}
	}
}

// TestExactRunsBoundExactly: a partition of η ≤ ⌈1/ε₁⌉ elements captures
// every one of its positions — consecutive entries sit at most one position
// apart, at η = 1/ε too, where a non-dyadic ε rounds some i·ε·η just below
// i — and a whole piece of any size holds every one, so each summary is the
// run itself and L(v) = U(v) = rank(v) at every value, data and between.
func TestExactRunsBoundExactly(t *testing.T) {
	base := propSeed(t)
	for i := 0; i < 200; i++ {
		seed := base + int64(i)
		rng := rand.New(rand.NewSource(seed))
		eps := []float64{1. / 4, 0.3, 0.1, 0.06, 2. / 161}[rng.Intn(5)]
		eps1 := eps / 2
		domain := int64(1 + rng.Intn(100))
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
		for s, n := 0, rng.Intn(8); s < n; s++ {
			batches = append(batches, draw(1+rng.Intn(int(math.Ceil(1/eps1)))))
		}
		// κ above the step count: no merge makes a partition larger.
		store := memStore(t, eps1, 9, batches)
		var pieces []StreamPiece
		for p, n := 0, rng.Intn(3); p < n; p++ {
			vs := draw(1 + rng.Intn(3*int(math.Ceil(1/eps1))))
			pieces = append(pieces, StreamPiece{}.Merge(slices.Sorted(slices.Values(vs))))
		}
		slices.Sort(all)
		c := BuildPieces(store.Entries(), pieces, eps1, 0)
		for v := int64(-1); v <= domain; v++ {
			r := int64(sort.Search(len(all), func(i int) bool { return all[i] > v }))
			if l, u := c.boundsAt(v); l != r || u != r {
				t.Fatalf("HSQ_PROP_SEED=%d (ε = %g): L(%d), U(%d) = %d, %d; want the rank %d", seed, eps, v, v, l, u, r)
			}
		}
	}
}

// TestShortRunIsItsOwnSummary: a run of ε·η < 1 elements is captured whole,
// each position once but the minimum, which entries 0 and 1 share — η + 1
// entries, not ⌈1/ε⌉ + 1. A level-0 partition, a partition merged from
// three such, the same partitions' summaries rebuilt by a scan when the
// store is loaded from its manifest, and a stream piece of 80 captured at ε₁
// as it leaves the engine each hold exactly their sorted run, as a whole
// piece of 150 does, and L = U = rank at every value, data and between.
func TestShortRunIsItsOwnSummary(t *testing.T) {
	const eps1 = 0.01 // runs below 100 elements
	rng := rand.New(rand.NewSource(5))
	draw := func(n int) []int64 {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = rng.Int63n(60) * 10
		}
		return vs
	}
	whole := func(run []int64) []int64 {
		sorted := slices.Sorted(slices.Values(run))
		return append([]int64{sorted[0]}, sorted...)
	}
	// κ = 2: the third step merges steps 1–3 into one partition of 95, and
	// step 4 stays at level 0.
	batches := [][]int64{draw(40), draw(35), draw(20), draw(30)}
	dev := newDev(t)
	cfg := partition.Config{Kappa: 2, Eps1: eps1}
	store, err := partition.NewStore(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if _, err := store.AddBatch(b, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Commit("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	loaded, err := partition.LoadStore(dev, "MANIFEST.json", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{whole(slices.Concat(batches[:3]...)), whole(batches[3])}
	for what, sums := range map[string][]*partition.Summary{"written": store.Entries(), "rebuilt": loaded.Entries()} {
		if len(sums) != len(want) {
			t.Fatalf("%s: %d partitions, want %d", what, len(sums), len(want))
		}
		for i, s := range sums {
			if !slices.Equal(s.Values, want[i]) || len(s.Values) != partition.Beta(s.Part.Count, eps1) {
				t.Fatalf("%s partition %d of %d elements: summary %v, want its sorted run %v", what, i, s.Part.Count, s.Values, want[i])
			}
		}
	}
	live, sealed := draw(150), draw(80)
	piece := StreamPiece{}.Merge(slices.Sorted(slices.Values(live)))
	if !slices.Equal(piece.SS, whole(live)) {
		t.Fatalf("whole piece of %d elements: %d entries, want its sorted run of %d", len(live), len(piece.SS), len(live)+1)
	}
	short := StreamPiece{SS: SortedSummary(slices.Sorted(slices.Values(sealed)), eps1), M: int64(len(sealed))}
	if !slices.Equal(short.SS, whole(sealed)) {
		t.Fatalf("stream piece of %d elements at ε₁: %d entries, want its sorted run of %d", len(sealed), len(short.SS), len(sealed)+1)
	}
	all := slices.Sorted(slices.Values(slices.Concat(append(batches, live, sealed)...)))
	for what, c := range map[string]*Combined{
		"written": BuildPieces(store.Entries(), []StreamPiece{short, piece}, eps1, 0),
		"rebuilt": BuildPieces(loaded.Entries(), []StreamPiece{short, piece}, eps1, 0),
	} {
		for v := int64(-1); v <= 600; v++ {
			r := int64(sort.Search(len(all), func(i int) bool { return all[i] > v }))
			if l, u := c.boundsAt(v); l != r || u != r {
				t.Fatalf("%s: L(%d), U(%d) = %d, %d; want the rank %d", what, v, v, l, u, r)
			}
		}
	}
}

// TestMergedQuickAnswerOverSmallSteps is the shape that used to leave the
// stated envelope (87 ranks off against ⌈1.5·ε·N⌉ = 71): a merged quick
// answer over a fleet's small steps — 32 streams of 150–260-value steps at
// ε = 0.001, over 300 partitions far smaller than 1/ε₁ = 2000 and of no
// alignment to it, each stream with a live piece — must land within
// ⌈1.5·ε·N⌉ of the exact rank at every φ.
func TestMergedQuickAnswerOverSmallSteps(t *testing.T) {
	const eps, streams = 0.001, 32
	rng := rand.New(rand.NewSource(propSeed(t)))
	var shards []*ShardSummary
	or := oracle.New(0)
	parts := 0
	for s := 0; s < streams; s++ {
		var batches [][]int64
		draw := func(n int) []int64 {
			vs := make([]int64, n)
			for i := range vs {
				vs[i] = int64(rng.NormFloat64()*1e6 + 1e8)
			}
			or.Add(vs...)
			return vs
		}
		for step := 10 + rng.Intn(6); step > 0; step-- {
			batches = append(batches, draw(150+rng.Intn(111)))
		}
		// κ = 16: no step merges, so every partition stays a step.
		store := memStore(t, eps/2, 16, batches)
		live := slices.Sorted(slices.Values(draw(rng.Intn(260))))
		sh := &ShardSummary{N: store.TotalCount() + int64(len(live)), Eps1: eps / 2}
		for _, e := range store.Entries() {
			sh.Parts = append(sh.Parts, PartSummary{Count: e.Part.Count, Values: e.Values})
		}
		parts += len(sh.Parts)
		if len(live) > 0 {
			sh.Pieces = []StreamPiece{{SS: SortedSummary(live, eps/4), M: int64(len(live))}}
		}
		shards = append(shards, sh)
	}
	if parts < 300 {
		t.Fatalf("%d partitions, want ≥ 300", parts)
	}
	c, n, err := MergeShardSummaries(shards)
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(math.Ceil(1.5 * eps * float64(n)))
	for _, phi := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		r, _ := RankTarget(phi, n)
		v, err := c.QuickQuery(r)
		if err != nil {
			t.Fatal(err)
		}
		if se := or.SpanError(r, v); se > bound {
			t.Errorf("φ=%g over %d partitions: quick answer %d is %d ranks from %d, over ⌈1.5·ε·N⌉ = %d", phi, parts, v, se, r, bound)
		}
	}
	if err := c.Validate(eps, or.Rank); err != nil {
		t.Error(err)
	}
}

// TestTieBoundsHoldOnEveryEntry is the smallest case of the tie defect the
// materialised TS had: two partitions of four 7s at ε₁ = ¼ give ten 7s, the
// first of which carried U = 1 against a rank of 8 and could be picked as
// the lower filter. L(7) and U(7) count all ten, and each partition's last
// entry is its fourth element, so both are the rank, 8.
func TestTieBoundsHoldOnEveryEntry(t *testing.T) {
	part := func() *partition.Summary {
		return &partition.Summary{Part: &partition.Partition{Count: 4}, Values: []int64{7, 7, 7, 7, 7}}
	}
	c := BuildPieces([]*partition.Summary{part(), part()}, nil, 0.25, 0.125)
	if err := c.Validate(0.5, func(int64) int64 { return 8 }); err != nil {
		t.Fatal(err)
	}
	if l, u := c.boundsAt(7); l != 8 || u != 8 {
		t.Fatalf("L(7), U(7) = %d, %d; want 8, 8", l, u)
	}
}

// referenceCross is the selection the rank-guided cross replaced, kept as
// its reference: it finds where reached — a predicate on (L(v), U(v)),
// monotone in v because both bounds are — turns true by bisecting the value
// space between the global extremes, and returns the largest summary value
// reached does not hold on and the smallest it holds on; where one does not
// exist the other, then a global extreme, stands in for it.
func referenceCross(c *Combined, reached func(l, u int64) bool) (below, at int64) {
	// Invariant: reached is false at lo and true at hi; a[i] and b[i] count
	// run i's elements ≤ lo and ≤ hi.
	lo, hi := c.minV, c.maxV
	k := len(c.runs)
	scratch := make([]int, 3*k)
	a, b, mid := scratch[:k], scratch[k:2*k], scratch[2*k:]
	sums := func(alpha []int) (l, u int64) {
		for i := range c.runs {
			l += c.runs[i].bound(alpha[i], false)
			u += c.runs[i].bound(alpha[i], true)
		}
		return l, u
	}
	for i := range c.runs {
		r := &c.runs[i]
		a[i], b[i] = countLE(r.vals, 0, len(r.vals), lo), len(r.vals)
	}
	if reached(sums(a)) {
		return lo, lo
	}
	if !reached(sums(b)) {
		return hi, hi
	}
	for uint64(hi-lo) > 1 { // exact in uint64 even when the difference overflows int64
		z := lo + int64(uint64(hi-lo)/2)
		for i := range c.runs {
			r := &c.runs[i]
			mid[i] = countLE(r.vals, a[i], b[i], z)
		}
		if reached(sums(mid)) {
			hi, b, mid = z, mid, b
		} else {
			lo, a, mid = z, mid, a
		}
	}
	// hi = lo + 1 and the bounds differ between them, so hi is a summary
	// value; the largest one ≤ lo sits just under some run's bracket.
	below = c.minV
	for i := range c.runs {
		if a[i] > 0 {
			below = max(below, c.runs[i].vals[a[i]-1])
		}
	}
	return below, hi
}

// referenceProbes runs referenceCross on cross's target and test, and
// counts its probes as cross counts its own: the evaluations that search
// the runs, which are all but the one at the global maximum.
func referenceProbes(c *Combined, r float64, upper bool) (below, at int64, probes int) {
	calls := 0
	below, at = referenceCross(c, func(l, u int64) bool {
		calls++
		if upper {
			return float64(u) > r
		}
		return float64(l) >= r
	})
	return below, at, calls - min(calls-1, 1)
}

// crossTargets are the targets a crossing is checked on over a summary of
// n elements: the ends, below and past them, fractional ones, and random
// ranks.
func crossTargets(n int64, rng *rand.Rand) []float64 {
	fn := float64(n)
	rs := []float64{math.Inf(-1), -1, 0, 0.5, 1, 1.5, fn / 3, fn/2 + 0.25, fn - 1, fn, fn + 0.5, fn + 1, 2 * fn}
	for len(rs) < 20 {
		r := float64(rng.Int63n(n + 2))
		if rng.Intn(2) == 0 {
			r += rng.Float64()
		}
		rs = append(rs, r)
	}
	return rs
}

// crossesLikeReference reports the first target and test on which cross
// and referenceCross disagree.
func crossesLikeReference(t *testing.T, c *Combined, rs []float64) bool {
	t.Helper()
	for _, r := range rs {
		for _, upper := range []bool{false, true} {
			below, at, _ := c.cross(r, upper)
			wb, wa, _ := referenceProbes(c, r, upper)
			if below != wb || at != wa {
				t.Errorf("cross(%v, upper=%v) = (%d, %d), want (%d, %d)", r, upper, below, at, wb, wa)
				return false
			}
		}
	}
	return true
}

// TestCrossMatchesReference is the differential test of the rank-guided
// crossing against the bisection it replaced: bit-equal (below, at) for both
// tests on random runs — ties, empty runs, the int64 extremes, up to 700
// runs — and on the fleet-group shape, at ~20 targets each.
func TestCrossMatchesReference(t *testing.T) {
	cases := 6000
	if testing.Short() {
		cases = 1000
	}
	base := propSeed(t)
	for i := 0; i < cases; i++ {
		seed := base + int64(i)
		rng := rand.New(rand.NewSource(seed))
		sums, pieces := randomRuns(rng, 0.025)
		c := BuildPieces(sums, pieces, 0.025, 0.0125)
		if len(c.runs) == 0 {
			continue
		}
		if !crossesLikeReference(t, c, crossTargets(c.N(), rng)) {
			t.Fatalf("HSQ_PROP_SEED=%d (%d summaries, %d pieces)", seed, len(sums), len(pieces))
		}
	}
	c := BuildPieces(fleetGroup(), nil, 0.0005, 0.00025)
	if !crossesLikeReference(t, c, crossTargets(c.N(), rand.New(rand.NewSource(base)))) {
		t.Fatal("fleet group")
	}
}

// FuzzCross checks cross against referenceCross on arbitrary sorted runs:
// each run takes a header byte — its length (low four bits), whether it is
// a stream piece (bit 4), whether its values are full eight-byte words or
// single signed bytes (bit 5) — then a byte of mass, then its values.
func FuzzCross(f *testing.F) {
	f.Add([]byte{3, 4, 1, 2, 3, 0x13, 9, 2, 2, 0xff}, 5.0)
	f.Add([]byte{0x22, 1, 0, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 0, 7}, 1.5)
	f.Fuzz(func(t *testing.T, data []byte, r float64) {
		var sums []*partition.Summary
		var pieces []StreamPiece
		for len(data) >= 2 && len(sums)+len(pieces) < 64 {
			h, mass := data[0], int64(data[1])
			data = data[2:]
			width := 1
			if h&0x20 != 0 {
				width = 8
			}
			n := min(int(h&0x0f), len(data)/width)
			vs := make([]int64, n)
			for i := range vs {
				if width == 8 {
					vs[i] = int64(binary.LittleEndian.Uint64(data))
				} else {
					vs[i] = int64(int8(data[0]))
				}
				data = data[width:]
			}
			slices.Sort(vs)
			if h&0x10 != 0 {
				pieces = append(pieces, StreamPiece{SS: vs, M: mass})
			} else {
				sums = append(sums, &partition.Summary{Part: &partition.Partition{Count: mass}, Values: vs})
			}
		}
		c := BuildPieces(sums, pieces, 0.25, 0.125)
		if len(c.runs) == 0 {
			return
		}
		crossesLikeReference(t, c, []float64{r})
	})
}

// TestCrossProbeGuard bounds the rank-guided crossing's cost: on inputs
// built against its interpolation — values spaced 2⁰…2⁶², all-equal runs,
// one heavy run among 700 singletons, runs of no mass under the mass, the
// int64 extremes beside a fleet group — and on runs captured whole — a
// fleet group of steps shorter than 1/ε₁, and a whole 20 000-value piece,
// alone and beside a deep stream's partitions — it probes at most twice as
// often as the bisection, plus two; on the fleet-group shape it probes at
// most ten times.
func TestCrossProbeGuard(t *testing.T) {
	part := func(count int64, vals ...int64) *partition.Summary {
		return &partition.Summary{Part: &partition.Partition{Count: count}, Values: vals}
	}
	var powers, equal, heavy []*partition.Summary
	for i := 0; i < 7; i++ {
		var vs []int64
		for e := i; e < 63; e += 7 {
			vs = append(vs, 1<<e)
		}
		powers = append(powers, part(int64(1000*(i+1)), vs...))
	}
	for i := 0; i < 50; i++ {
		equal = append(equal, part(1000, 42, 42, 42, 42, 42, 42, 42, 42))
	}
	heavy = append(heavy, part(100_000, benchRuns(1, 100_000)[0].Values...))
	for i := 0; i < 700; i++ {
		heavy = append(heavy, part(1, int64(i)*1e6))
	}
	// Runs of no mass below the first element that has some: the bound is
	// flat across a thousand candidates, so no interpolation can aim.
	massless := []*partition.Summary{part(100_000, benchRuns(1, 100_000)[0].Values...)}
	for i := 0; i < 200; i++ {
		massless = append(massless, part(0, int64(i), int64(200+i), int64(400+i), int64(600+i), int64(800+i)))
	}
	extremes := fleetGroup()
	extremes = append(extremes, part(5000, math.MinInt64, math.MinInt64+1, 0), part(5000, 0, math.MaxInt64-1, math.MaxInt64))
	whole := []StreamPiece{wholeBenchPiece()}
	rng := rand.New(rand.NewSource(propSeed(t)))
	for _, tc := range []struct {
		name   string
		sums   []*partition.Summary
		pieces []StreamPiece
	}{
		{"powers of two", powers, nil},
		{"powers of two with a piece", powers, []StreamPiece{{SS: []int64{1, 1 << 40, math.MaxInt64}, M: 3000}}},
		{"all equal", equal, nil},
		{"heavy run among singletons", heavy, nil},
		{"massless runs below the mass", massless, nil},
		{"int64 extremes", extremes, []StreamPiece{{SS: []int64{math.MinInt64, 5e8, math.MaxInt64}, M: 1000}}},
		{"fleet group of short steps", shortFleetGroup(), nil},
		{"whole piece", nil, whole},
		{"deep stream with a whole piece", benchRuns(20, 40000), whole},
	} {
		c := BuildPieces(tc.sums, tc.pieces, 0.0005, 0.00025)
		for _, r := range crossTargets(c.N(), rng) {
			for _, upper := range []bool{false, true} {
				_, _, got := c.cross(r, upper)
				_, _, ref := referenceProbes(c, r, upper)
				if got > 2*ref+2 {
					t.Errorf("%s: cross(%v, upper=%v) took %d probes, the bisection %d", tc.name, r, upper, got, ref)
				}
			}
		}
	}
	c := BuildPieces(fleetGroup(), nil, 0.0005, 0.00025)
	for _, phi := range []float64{0.01, 0.25, 0.5, 0.75, 0.9, 0.99} {
		r, _ := RankTarget(phi, c.N())
		for _, upper := range []bool{false, true} {
			if _, _, got := c.cross(float64(r), upper); got > 10 {
				t.Errorf("fleet group: cross at φ=%g, upper=%v took %d probes, want ≤ 10", phi, upper, got)
			}
		}
	}
}

// fleetGroup is one group of the e2e fleet plan's merged reads: 32 streams
// of 1000-value steps leveled at κ = 10 — six hot ones of ~170 steps, the
// rest of ~10 — whose partitions' summaries hold the capture rule's entries
// at ε₁ = 0.0005 (1 001 for a step, captured whole; 2 001 above), uniform
// in [1e8, 1e9): 190 runs over N = 1.32 M, where the plan's groups hold
// 175–231 runs over N ≈ 1.28 M.
func fleetGroup() []*partition.Summary {
	rng := rand.New(rand.NewSource(11))
	draw := func() int64 { return 1e8 + rng.Int63n(9e8) }
	var sums []*partition.Summary
	for s := 0; s < 32; s++ {
		steps := 5 + rng.Intn(12)
		if s < 6 {
			steps = 150 + rng.Intn(40)
		}
		for count := int64(1000); steps > 0; steps, count = steps/10, count*10 {
			for d := 0; d < steps%10; d++ {
				sums = append(sums, &partition.Summary{Part: &partition.Partition{Count: count}, Values: ruleValues(count, 0.0005, draw)})
			}
		}
	}
	return sums
}

// shortFleetGroup is fleetGroup's shape with every partition shorter than
// 1/ε₁ = 2 000, so every run is captured whole: 190 streams of 100–1 900
// -value steps, unleveled, one to five steps each.
func shortFleetGroup() []*partition.Summary {
	rng := rand.New(rand.NewSource(12))
	draw := func() int64 { return 1e8 + rng.Int63n(9e8) }
	var sums []*partition.Summary
	for s := 0; s < 190; s++ {
		for steps := 1 + rng.Intn(5); steps > 0; steps-- {
			count := int64(100 + rng.Intn(1800))
			sums = append(sums, &partition.Summary{Part: &partition.Partition{Count: count}, Values: ruleValues(count, 0.0005, draw)})
		}
	}
	return sums
}

// wholeBenchPiece is a live step of 20 000 values, normal around 1e7 like
// benchRuns, as the engine hands it to a read: whole.
func wholeBenchPiece() StreamPiece {
	rng := rand.New(rand.NewSource(2))
	vs := make([]int64, 20000)
	for i := range vs {
		vs[i] = int64(rng.NormFloat64()*1e6 + 1e7)
	}
	return StreamPiece{}.Merge(slices.Sorted(slices.Values(vs)))
}

// benchRuns is a measured shape: parts summaries of partitions of count
// elements, normal around 1e7, holding the capture rule's entries at
// ε₁ = 0.0005.
func benchRuns(parts int, count int64) []*partition.Summary {
	rng := rand.New(rand.NewSource(1))
	draw := func() int64 { return int64(rng.NormFloat64()*1e6 + 1e7) }
	sums := make([]*partition.Summary, parts)
	for i := range sums {
		sums[i] = &partition.Summary{Part: &partition.Partition{Count: count}, Values: ruleValues(count, 0.0005, draw)}
	}
	return sums
}

// ruleValues is a run of count elements summarized at ε as the capture rule
// shapes it: partition.Beta(count, ε) sorted values from draw, entries that
// share a position sharing its value (the minimum of a run captured whole
// sits at entries 0 and 1).
func ruleValues(count int64, eps float64, draw func() int64) []int64 {
	vs := make([]int64, partition.Beta(count, eps))
	for i := range vs {
		vs[i] = draw()
	}
	slices.Sort(vs)
	for i := 1; i < len(vs); i++ {
		if partition.CapturePos(i, count, eps) == partition.CapturePos(i-1, count, eps) {
			vs[i] = vs[i-1]
		}
	}
	return vs
}

// BenchmarkSelect prices a read's use of the combined summary on the
// shapes the e2e benchmark reads, each answering three targets: one group
// of a merged fleet plan in an older shape (≈700 normal summaries of
// 1000-value steps at ε = 0.001, each step captured whole in 1 001 entries)
// and as the plan reads it now
// (fleetGroup: 190 uniform summaries of mixed sizes), each for quick
// answers; one deep stream (≈20 partitions plus the live step's 20 000
// values, whole) and a tiny one (3 partitions plus the piece), each
// generating filters.
// Every row runs against building the materialised TS first and searching
// that; probes/op counts the crossings' probes.
func BenchmarkSelect(b *testing.B) {
	const eps1 = 0.0005
	piece := wholeBenchPiece()
	for _, bc := range []struct {
		name    string
		sums    []*partition.Summary
		pieces  []StreamPiece
		filters bool
	}{
		{"fleet", benchRuns(700, 1000), nil, false},
		{"fleet-group", fleetGroup(), nil, false},
		{"deep", benchRuns(20, 40000), []StreamPiece{piece}, true},
		{"tiny", benchRuns(3, 40000), []StreamPiece{piece}, true},
	} {
		c := BuildPieces(bc.sums, bc.pieces, eps1, 0)
		n := c.N()
		rs := []int64{n / 4, n / 2, n - n/20}
		probes := 0
		for _, r := range rs {
			_, _, p := c.cross(float64(r), false)
			probes += p
			if bc.filters {
				_, _, p = c.cross(float64(r), true)
				probes += p
			}
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := BuildPieces(bc.sums, bc.pieces, eps1, 0)
				for _, r := range rs {
					if bc.filters {
						c.Filters(r) //nolint:errcheck
					} else {
						c.QuickQuery(r) //nolint:errcheck
					}
				}
			}
			b.ReportMetric(float64(probes), "probes/op")
		})
		b.Run(bc.name+"/merge-oracle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ts := materialise(BuildPieces(bc.sums, bc.pieces, eps1, 0))
				for _, r := range rs {
					if bc.filters {
						ts.Filters(r, false)
					} else {
						ts.QuickQuery(r)
					}
				}
			}
		})
	}
}
