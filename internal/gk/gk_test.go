package gk

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// exactRank returns the number of elements <= v in sorted data.
func exactRank(sorted []int64, v int64) int64 {
	return int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > v }))
}

func TestNewValidation(t *testing.T) {
	for _, eps := range []float64{0, -0.1, 1, 1.5} {
		if _, err := New(eps); err == nil {
			t.Errorf("New(%g): want error", eps)
		}
	}
	if s := MustNew(0.1); s.Epsilon() != 0.1 {
		t.Error("MustNew lost eps")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0): want panic")
		}
	}()
	MustNew(0)
}

func TestEmptySketch(t *testing.T) {
	s := MustNew(0.1)
	if _, ok := s.Query(1); ok {
		t.Error("Query on empty: want ok=false")
	}
	if _, ok := s.Quantile(0.5); ok {
		t.Error("Quantile on empty: want ok=false")
	}
	if _, ok := s.Min(); ok {
		t.Error("Min on empty: want ok=false")
	}
	if _, ok := s.Max(); ok {
		t.Error("Max on empty: want ok=false")
	}
	if lo, hi := s.RankBounds(5); lo != 0 || hi != 0 {
		t.Error("RankBounds on empty should be (0,0)")
	}
}

func TestExactMinMax(t *testing.T) {
	s := MustNew(0.05)
	rng := rand.New(rand.NewSource(1))
	mn, mx := int64(math.MaxInt64), int64(math.MinInt64)
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(1 << 40)
		s.Insert(v)
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if got, _ := s.Min(); got != mn {
		t.Errorf("Min = %d, want %d", got, mn)
	}
	if got, _ := s.Max(); got != mx {
		t.Errorf("Max = %d, want %d", got, mx)
	}
}

// errorWithin checks every decile query against the exact answer.
func errorWithin(t *testing.T, s *Sketch, sorted []int64, eps float64) {
	t.Helper()
	n := int64(len(sorted))
	bound := int64(math.Ceil(eps*float64(n))) + 1
	for _, phi := range []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
		r := int64(math.Ceil(phi * float64(n)))
		if r < 1 {
			r = 1
		}
		v, ok := s.Query(r)
		if !ok {
			t.Fatalf("Query(%d): not ok", r)
		}
		got := exactRank(sorted, v)
		// rank of v counts duplicates; the sketch returns some element whose
		// rank interval intersects [r-εn, r+εn]. Verify against the smallest
		// rank any copy of v can have.
		lo := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] >= v })) + 1
		if got < r-bound || lo > r+bound {
			t.Errorf("phi=%.2f r=%d: value %d has rank span [%d,%d], outside ±%d", phi, r, v, lo, got, bound)
		}
	}
}

func TestAccuracyUniform(t *testing.T) {
	for _, eps := range []float64{0.1, 0.01, 0.001} {
		s := MustNew(eps)
		rng := rand.New(rand.NewSource(2))
		data := make([]int64, 50000)
		for i := range data {
			data[i] = rng.Int63n(1 << 30)
			s.Insert(data[i])
		}
		if err := s.checkInvariant(); err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
		slices.Sort(data)
		errorWithin(t, s, data, eps)
	}
}

func TestAccuracySorted(t *testing.T) {
	// Sorted input is GK's historic worst case for space; accuracy must
	// still hold.
	s := MustNew(0.01)
	n := 30000
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
		s.Insert(int64(i))
	}
	errorWithin(t, s, data, 0.01)
}

func TestAccuracyReversed(t *testing.T) {
	s := MustNew(0.01)
	n := 30000
	data := make([]int64, n)
	for i := range data {
		v := int64(n - i)
		data[i] = v
		s.Insert(v)
	}
	slices.Sort(data)
	errorWithin(t, s, data, 0.01)
}

func TestAccuracyManyDuplicates(t *testing.T) {
	s := MustNew(0.01)
	rng := rand.New(rand.NewSource(5))
	data := make([]int64, 30000)
	for i := range data {
		data[i] = rng.Int63n(10) // only 10 distinct values
		s.Insert(data[i])
	}
	slices.Sort(data)
	errorWithin(t, s, data, 0.01)
}

func TestSpaceBound(t *testing.T) {
	// Space should be O((1/ε)·log(εn)); verify against a generous constant.
	eps := 0.01
	s := MustNew(eps)
	rng := rand.New(rand.NewSource(3))
	n := 200000
	for i := 0; i < n; i++ {
		s.Insert(rng.Int63())
	}
	bound := int(12.0 / eps * math.Max(1, math.Log2(eps*float64(n))))
	if s.TupleCount() > bound {
		t.Errorf("tuples = %d, generous bound = %d", s.TupleCount(), bound)
	}
	if s.MaxTupleCount() < s.TupleCount() {
		t.Error("high-water mark below current size")
	}
	if s.MemoryBytes() < int64(s.TupleCount())*24 {
		t.Error("MemoryBytes must cover the tuple list")
	}
}

func TestReset(t *testing.T) {
	s := MustNew(0.1)
	for i := 0; i < 100; i++ {
		s.Insert(int64(i))
	}
	s.Reset()
	if s.Count() != 0 || s.TupleCount() != 0 {
		t.Error("Reset left state behind")
	}
	s.Insert(42)
	if v, ok := s.Query(1); !ok || v != 42 {
		t.Errorf("after reset Query = %d,%v", v, ok)
	}
}

func TestRankBounds(t *testing.T) {
	s := MustNew(0.05)
	data := make([]int64, 10000)
	rng := rand.New(rand.NewSource(9))
	for i := range data {
		data[i] = rng.Int63n(1 << 20)
		s.Insert(data[i])
	}
	slices.Sort(data)
	e := int64(math.Ceil(0.05*float64(len(data)))) + 1
	for _, v := range []int64{data[0], data[len(data)/2], data[len(data)-1], -5, 1 << 21} {
		lo, hi := s.RankBounds(v)
		exact := exactRank(data, v)
		if exact < lo-e || exact > hi+e {
			t.Errorf("RankBounds(%d) = [%d,%d], exact %d", v, lo, hi, exact)
		}
		est := s.RankEstimate(v)
		if est < lo || est > hi {
			t.Errorf("RankEstimate outside bounds")
		}
	}
}

func TestQueryClamping(t *testing.T) {
	s := MustNew(0.1)
	for i := int64(1); i <= 100; i++ {
		s.Insert(i)
	}
	if v, ok := s.Query(-5); !ok || v != 1 {
		t.Errorf("Query(-5) = %d", v)
	}
	vHigh, ok := s.Query(1 << 40)
	if !ok || vHigh < 85 {
		t.Errorf("Query(huge) = %d, want near max", vHigh)
	}
}

// TestQueryAscendingMatchesQuery: the one-scan form answers every rank —
// out-of-range ones included — exactly as Query does, and refuses an empty
// sketch.
func TestQueryAscendingMatchesQuery(t *testing.T) {
	s := MustNew(0.01)
	if rs := []int64{1, 2}; s.QueryAscending(rs) || rs[0] != 1 || rs[1] != 2 {
		t.Errorf("empty sketch: answered %v", rs)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		s.Insert(rng.Int63n(1000))
	}
	rs := []int64{-7, 0, 1, 1}
	for r := int64(2); r < 6000; r += 1 + rng.Int63n(40) {
		rs = append(rs, r)
	}
	got := slices.Clone(rs)
	if !s.QueryAscending(got) {
		t.Fatal("QueryAscending reported an empty sketch")
	}
	for k, r := range rs {
		if want, _ := s.Query(r); got[k] != want {
			t.Fatalf("rank %d: one scan answered %d, Query %d", r, got[k], want)
		}
	}
}

// Property test: for random small streams, every rank query is within the
// bound. This is invariant 1 of DESIGN.md.
func TestQuickRankGuarantee(t *testing.T) {
	f := func(raw []int16, epsSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		eps := 0.02 + float64(epsSeed%10)*0.01
		s := MustNew(eps)
		data := make([]int64, len(raw))
		for i, x := range raw {
			data[i] = int64(x)
			s.Insert(int64(x))
		}
		if err := s.checkInvariant(); err != nil {
			return false
		}
		slices.Sort(data)
		n := int64(len(data))
		bound := int64(math.Ceil(eps*float64(n))) + 1
		for r := int64(1); r <= n; r += max64(1, n/7) {
			v, ok := s.Query(r)
			if !ok {
				return false
			}
			hi := exactRank(data, v)
			lo := int64(sort.Search(len(data), func(i int) bool { return data[i] >= v })) + 1
			if hi < r-bound || lo > r+bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestBandMonotonicity(t *testing.T) {
	// Newer tuples (delta close to p) must be in lower bands than old ones.
	p := int64(100)
	if band(p, p) != -1 {
		t.Error("brand-new tuple should be band -1")
	}
	prev := int64(-1)
	for delta := p - 1; delta >= 0; delta -= 7 {
		b := band(delta, p)
		if b < prev {
			t.Errorf("band(%d) = %d decreased below %d", delta, b, prev)
		}
		if b > prev {
			prev = b
		}
	}
}
