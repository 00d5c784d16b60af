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

// This file holds the oracle of the selector: TS materialised, as every read
// built it before the selector — a stable k-way merge of the sorted runs
// with (L_i, U_i) swept per entry — and the sort-based builder that merge
// replaced, which checks the merge in turn. Both count, for entry i, the
// summary elements at TS positions ≤ i where Lemma 2's α counts those with
// value ≤ TS[i]: the last entry of a run of equal values carries exactly
// L(v) and U(v), earlier ones the bounds of a prefix of the tie, whose U can
// fall below the value's rank. The selector has no such entries; where the
// two differ, the tie must explain it.

// mergedRuns is TS: the sorted union of runs with, per entry, the Lemma 2
// bounds the runs' elements up to it add up to.
type mergedRuns struct {
	Values       []int64
	Lower, Upper []float64
}

// materialise merges the runs c selects over.
func materialise(c *Combined) mergedRuns { return mergeRuns(c.runs, c.eps1, c.eps2) }

// Len returns δ, the number of TS entries.
func (ms mergedRuns) Len() int { return len(ms.Values) }

// Value returns TS[i].
func (ms mergedRuns) Value(i int) int64 { return ms.Values[i] }

// Bounds returns (L_i, U_i).
func (ms mergedRuns) Bounds(i int) (float64, float64) { return ms.Lower[i], ms.Upper[i] }

// lastOfTie reports whether no later entry has entry i's value.
func (ms mergedRuns) lastOfTie(i int) bool {
	return i+1 == len(ms.Values) || ms.Values[i+1] != ms.Values[i]
}

// QuickQuery is Algorithm 5 over the array: TS[j] for the smallest j with
// L_j ≥ r, or the last element if none.
func (ms mergedRuns) QuickQuery(r int64) int64 {
	fr := float64(r)
	j := sort.Search(len(ms.Lower), func(i int) bool { return ms.Lower[i] >= fr })
	return ms.Values[min(j, len(ms.Lower)-1)]
}

// Filters is Algorithm 7 over the array: u = TS[x] for the largest x with
// U_x ≤ r (the first entry if none), v as QuickQuery. strict restricts x to
// the last entry of a tie, whose U is U(v).
func (ms mergedRuns) Filters(r int64, strict bool) (u, v int64) {
	fr := float64(r)
	x := sort.Search(len(ms.Upper), func(i int) bool { return ms.Upper[i] > fr }) - 1
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
	return int64((ms.Lower[i] + ms.Upper[i]) / 2)
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
// sweeps the result once for L and U with the selector's exact sums: a
// run's first element adds nothing to L and n to U (2n for a stream piece,
// α+1 = 2), every later one n to both.
func mergeRuns(runs []sortedRun, eps1, eps2 float64) mergedRuns {
	total := runLen(runs)
	if total == 0 {
		return mergedRuns{}
	}
	// An element travels as (value, tag): tag 2·run, +1 on the run's first
	// element — all the sweep needs to know about where it came from.
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

	ms := mergedRuns{Values: vals, Lower: make([]float64, total), Upper: make([]float64, total)}
	var s rankSums
	for i, t := range tags {
		switch r := runs[t>>1]; {
		case r.stream && t&1 == 1:
			s.streamU += 2 * r.n
		case r.stream:
			s.streamL += r.n
			s.streamU += r.n
		case t&1 == 1:
			s.histU += r.n
		default:
			s.histL += r.n
			s.histU += r.n
		}
		ms.Lower[i], ms.Upper[i] = s.bounds(eps1, eps2)
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
			dt[i] = uint32(2 * base)
		}
		if len(dt) > 0 {
			dt[0]++
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
// per run.
func sortBuild(sums []*partition.Summary, pieces []StreamPiece, eps1, eps2 float64) mergedRuns {
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
	var ms mergedRuns
	var s rankSums
	alpha := make([]int64, len(pieces)+len(sums))
	for _, it := range items {
		alpha[it.src]++
		if j := it.src; j < len(pieces) {
			if alpha[j] == 1 {
				s.streamU += 2 * pieces[j].M
			} else {
				s.streamL += pieces[j].M
				s.streamU += pieces[j].M
			}
		} else {
			n := sums[j-len(pieces)].Part.Count
			if alpha[j] > 1 {
				s.histL += n
			}
			s.histU += n
		}
		l, u := s.bounds(eps1, eps2)
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
			switch ri := float64(rankOf(v)); {
			case l > ri+1e-9:
				return fmt.Errorf("core: L(%d)=%.1f > rank=%.0f", v, l, ri)
			case u < ri-1e-9:
				return fmt.Errorf("core: U(%d)=%.1f < rank=%.0f", v, u, ri)
			case u-l > en+1e-9:
				return fmt.Errorf("core: U(%d)-L(%d)=%.1f > εN=%.1f", v, v, u-l, en)
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
// in 32: up to 700, a fleet group's worth) and 0–4 stream pieces whose runs
// are empty, single or β long, over a value pool small enough that equal
// values recur across runs and inside one (as in summaries of partitions
// smaller than β₁), in one case of four with the int64 extremes mixed in,
// and with runs that are empty yet carry mass.
func randomRuns(rng *rand.Rand) ([]*partition.Summary, []StreamPiece) {
	beta := 2 + rng.Intn(40)
	pool := 1 + rng.Intn(3*beta)
	if rng.Intn(4) == 0 {
		pool = 1 << 30
	}
	extremes := rng.Intn(4) == 0
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

// twoShards splits the sources over two shards, in order. Both count as
// non-empty, so they are merged even when every count drew 0.
func twoShards(sums []*partition.Summary, pieces []StreamPiece, eps1, eps2 float64) []*ShardSummary {
	shards := []*ShardSummary{{N: 1, Eps1: eps1, Eps2: eps2}, {N: 1, Eps1: eps1, Eps2: eps2}}
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
// every entry's value and bounds, bit for bit.
func sameTS(t *testing.T, got, want mergedRuns) bool {
	t.Helper()
	if got.Len() != want.Len() {
		t.Errorf("δ=%d, want %d", got.Len(), want.Len())
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
	return true
}

// TestMergeMatchesSort checks the oracle: on random inputs the merge must
// give, entry for entry and bit for bit, what the sort-based builder gives,
// from BuildPieces' runs and from MergeShardSummaries' alike.
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
		if !sameTS(t, materialise(BuildPieces(sums, pieces, eps1, eps2)), want) {
			t.Fatalf("the merge of BuildPieces' runs differs from the sort oracle: HSQ_PROP_SEED=%d (%d summaries, %d pieces)", seed, len(sums), len(pieces))
		}
		if i%8 != 0 {
			continue
		}
		merged, _, err := MergeShardSummaries(twoShards(sums, pieces, eps1, eps2))
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
	if lo, _ := c.globalMin(); lo != ts.Value(0) {
		t.Errorf("globalMin = %d, want %d", lo, ts.Value(0))
		return false
	}
	if hi, _ := c.globalMax(); hi != ts.Value(ts.Len()-1) {
		t.Errorf("globalMax = %d, want %d", hi, ts.Value(ts.Len()-1))
		return false
	}
	n := c.N()
	rs := []int64{-1, 0, 1, 2, n / 7, n / 3, n / 2, n - n/5, n - 1, n, n + 1}
	vs := []int64{math.MinInt64, math.MaxInt64, 0}
	for j := 0; j < 6; j++ {
		rs = append(rs, 1+rng.Int63n(max(n, 1)))
		i := rng.Intn(ts.Len())
		l, u := ts.Bounds(i)
		rs = append(rs, int64(l), int64(l)+1, int64(u), int64(u)+1)
		vs = append(vs, ts.Value(i), ts.Value(i)-1, ts.Value(i)+1)
		if !ts.lastOfTie(i) {
			continue
		}
		if gl, gu := c.boundsAt(ts.Value(i)); math.Float64bits(gl) != math.Float64bits(l) || math.Float64bits(gu) != math.Float64bits(u) {
			t.Errorf("bounds at %d = (%v, %v), want TS[%d]'s (%v, %v)", ts.Value(i), gl, gu, i, l, u)
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
			x := sort.Search(ts.Len(), func(i int) bool { return ts.Upper[i] > float64(r) }) - 1
			if ts.lastOfTie(x) || plainU < wantU {
				t.Errorf("Filters(%d): u = %d where the array picks TS[%d] = %d, which ends its tie", r, u, x, plainU)
				return false
			}
		}
	}
	for _, v := range vs {
		// The array's midpoint, clamped to N as QuickRank is.
		if g, w := c.QuickRank(v), min(ts.QuickRank(v), c.N()); g != w {
			t.Errorf("QuickRank(%d) = %d, want %d", v, g, w)
			return false
		}
	}
	return true
}

// TestSelectMatchesMerge is the differential test of the selector: on
// random runs — k from 1 to 700, duplicate-heavy, single-element and empty
// ones — every selection over BuildPieces' and MergeShardSummaries' runs
// equals the one over their materialised merge (see selectsLike for what
// equal means on ties).
func TestSelectMatchesMerge(t *testing.T) {
	cases := 12000
	if testing.Short() {
		cases = 2000
	}
	base := propSeed(t)
	for i := 0; i < cases; i++ {
		seed := base + int64(i)
		rng := rand.New(rand.NewSource(seed))
		sums, pieces := randomRuns(rng)
		const eps1, eps2 = 0.01, 0.005
		c := BuildPieces(sums, pieces, eps1, eps2)
		if !selectsLike(t, c, materialise(c), rng) {
			t.Fatalf("BuildPieces selects unlike its merge: HSQ_PROP_SEED=%d (%d summaries, %d pieces)", seed, len(sums), len(pieces))
		}
		if i%8 != 0 {
			continue
		}
		merged, _, err := MergeShardSummaries(twoShards(sums, pieces, eps1, eps2))
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
	const eps1, eps2 = 0.25, 0.125
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
		sh := &ShardSummary{N: tc.n, Eps1: eps1, Eps2: eps2, Pieces: tc.pieces}
		for _, s := range tc.sums {
			sh.Parts = append(sh.Parts, PartSummary{Count: s.Part.Count, Values: s.Values})
		}
		merged, _, err := MergeShardSummaries([]*ShardSummary{sh})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, c := range []*Combined{BuildPieces(tc.sums, tc.pieces, eps1, eps2), merged} {
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
// exact ranks: stores of one to four steps of 1/ε₁ elements (the smallest
// repeat an element in their summary), zero to three stream pieces, a small
// value domain — so ties, inside a summary and across them, are the common
// case, and every distinct value's bounds must hold. ε is a power of two
// and every partition a multiple of 1/ε₁, so each summary element sits at
// rank i·ε₁·η exactly; other sizes capture ⌊i·ε₁·η⌋, which the bounds
// overstate by up to one rank per partition (CHANGES.md, PR 13's open
// finding).
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
		if err := c.Validate(eps, rankOf); err != nil {
			t.Fatalf("HSQ_PROP_SEED=%d: %v", seed, err)
		}
		ts := materialise(c)
		if !sameTS(t, ts, sortBuild(store.Entries(), pieces, eps1, eps2)) {
			t.Fatalf("HSQ_PROP_SEED=%d: the merge differs from the sort oracle", seed)
		}
		if !selectsLike(t, c, ts, rng) {
			t.Fatalf("HSQ_PROP_SEED=%d: selects unlike its merge", seed)
		}
	}
}

// TestTieBoundsHoldOnEveryEntry is the smallest case of the tie defect the
// materialised TS had: two partitions of four 7s at ε₁ = ¼ give ten 7s, the
// first of which carried U = 1 against a rank of 8 and could be picked as
// the lower filter. L(7) and U(7) count all ten.
func TestTieBoundsHoldOnEveryEntry(t *testing.T) {
	part := func() *partition.Summary {
		return &partition.Summary{Part: &partition.Partition{Count: 4}, Values: []int64{7, 7, 7, 7, 7}}
	}
	c := BuildPieces([]*partition.Summary{part(), part()}, nil, 0.25, 0.125)
	if err := c.Validate(0.5, func(int64) int64 { return 8 }); err != nil {
		t.Fatal(err)
	}
	if l, u := c.boundsAt(7); l != 8 || u != 10 {
		t.Fatalf("L(7), U(7) = %g, %g; want 8, 10", l, u)
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

// BenchmarkSelect prices a read's use of the combined summary on the two
// shapes the e2e benchmark reads: one group of a merged fleet plan (≈700
// summaries of 1000-value steps at ε = 0.001, so β₁ = 2001) answering three
// quick targets, and one deep stream (≈20 partitions plus the live stream's
// piece) generating the filters of three — each against building the
// materialised TS first and searching that.
func BenchmarkSelect(b *testing.B) {
	const eps1, eps2 = 0.0005, 0.00025
	piece := make([]int64, 4001)
	for i := range piece {
		piece[i] = int64(i) * 5000
	}
	for _, bc := range []struct {
		name    string
		sums    []*partition.Summary
		pieces  []StreamPiece
		filters bool
	}{
		{"fleet", benchRuns(700, 2001, 1000), nil, false},
		{"deep", benchRuns(20, 2001, 40000), []StreamPiece{{SS: piece, M: 20000}}, true},
	} {
		n := BuildPieces(bc.sums, bc.pieces, eps1, eps2).N()
		rs := []int64{n / 4, n / 2, n - n/20}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := BuildPieces(bc.sums, bc.pieces, eps1, eps2)
				for _, r := range rs {
					if bc.filters {
						c.Filters(r) //nolint:errcheck
					} else {
						c.QuickQuery(r) //nolint:errcheck
					}
				}
			}
		})
		b.Run(bc.name+"/merge-oracle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ts := materialise(BuildPieces(bc.sums, bc.pieces, eps1, eps2))
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
