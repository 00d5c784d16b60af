package partition

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"path"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/disk"
)

func newDev(t *testing.T) *disk.Manager {
	t.Helper()
	m, err := disk.NewManager(t.TempDir(), 64) // 8 elements per block
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newStore(t *testing.T, dev *disk.Manager, kappa int, eps1 float64) *Store {
	t.Helper()
	s, err := NewStore(dev, Config{Kappa: kappa, Eps1: eps1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func readPartition(t testing.TB, p *Partition) []int64 {
	t.Helper()
	r, err := p.OpenSequential()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out []int64
	for {
		v, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func TestConfigValidation(t *testing.T) {
	dev := newDev(t)
	if _, err := NewStore(dev, Config{Kappa: 1, Eps1: 0.1}); err == nil {
		t.Error("kappa=1: want error")
	}
	if _, err := NewStore(dev, Config{Kappa: 2, Eps1: 0}); err == nil {
		t.Error("eps1=0: want error")
	}
	if _, err := NewStore(dev, Config{Kappa: 2, Eps1: 1.5}); err == nil {
		t.Error("eps1>1: want error")
	}
}

// TestBeta1: β₁ = ⌈1/ε₁ + 1⌉ entries for a run of η ≥ 1/ε₁ elements and
// η + 1 for a shorter one, and at every ε — 1/k included, where the float
// product ⌈1/ε⌉·ε can fall short of 1 — and every η the last of the Beta
// entries sits on the run's maximum.
func TestBeta1(t *testing.T) {
	cases := []struct {
		eta  int64
		eps1 float64
		want int
	}{
		{100, 0.25, 5}, {100, 0.5, 3}, {100, 0.1, 11}, {100, 0.125, 9}, {100, 0.3, 5}, {4000, 0.0005, 2001},
		{2000, 0.0005, 2001}, {1999, 0.0005, 2000}, {1000, 0.0005, 1001}, {200, 0.0005, 201},
		{3, 0.25, 4}, {4, 0.25, 5}, {1, 0.25, 2}, {0, 0.25, 0},
	}
	for _, c := range cases {
		if got := Beta(c.eta, c.eps1); got != c.want {
			t.Errorf("Beta(%d, %g) = %d, want %d", c.eta, c.eps1, got, c.want)
		}
	}
	for k := 2; k <= 5000; k++ {
		eps := 1 / float64(k)
		for _, eta := range []int64{1, 2, 7, int64(k) - 1, int64(k), int64(k) + 1, 4001, 1 << 20} {
			if eta < 1 {
				continue
			}
			if n := Beta(eta, eps); CapturePos(n-1, eta, eps) != eta-1 {
				t.Fatalf("ε = 1/%d, η = %d: the last of %d entries sits at %d, not the maximum %d", k, eta, n, CapturePos(n-1, eta, eps), eta-1)
			}
		}
	}
}

// capturePositions lists CapturePos for entries 0..beta1-1.
func capturePositions(eta int64, eps1 float64, beta1 int) []int64 {
	pos := make([]int64, beta1)
	for i := range pos {
		pos[i] = CapturePos(i, eta, eps1)
	}
	return pos
}

// referencePositions is the slice builder summaries once stored their
// positions from, kept as the reference CapturePos must reproduce.
func referencePositions(eta int64, eps1 float64, beta1 int) []int64 {
	if eta <= 0 {
		return nil
	}
	pos := make([]int64, 0, beta1)
	pos = append(pos, 0)
	for i := 1; i < beta1; i++ {
		p := int64(float64(i)*eps1*float64(eta)) - 1
		if p < 0 {
			p = 0
		}
		if p > eta-1 {
			p = eta - 1
		}
		if p < pos[len(pos)-1] {
			p = pos[len(pos)-1]
		}
		pos = append(pos, p)
	}
	return pos
}

// TestCapturePosMatchesReference pins Algorithm 2's derived positions to the
// stored ones they replace, entry for entry, wherever ε₁·η > 1, so every
// bracket and block read stays where it was. Where ε₁·η ≤ 1 the entries are
// the run itself, position i − 1 for entry i ≥ 1, each position once but the
// minimum: at ε₁·η = 1 that is the paper's ranks i·ε₁·η exactly, where the
// reference's float product fell short of i at some entries (ε₁ = 0.01,
// η = 100: i = 29 and 58) and took the position before twice.
func TestCapturePosMatchesReference(t *testing.T) {
	epss := []float64{0.5, 0.3, 0.25, 0.1, 0.05, 0.025, 0.01, 0.0005, 1.0 / 3000, 0.000123}
	etas := []int64{1, 2, 3, 7, 100, 199, 200, 999, 1000, 1999, 2000, 2001, 3999, 4000, 4001, 8191, 57000, 1<<20 + 1}
	for _, eps1 := range epss {
		for _, eta := range etas {
			beta1 := Beta(eta, eps1)
			ref := referencePositions(eta, eps1, beta1)
			if eps1*float64(eta) <= 1 {
				for i := range ref {
					ref[i] = max(int64(i)-1, 0)
				}
			}
			if got := capturePositions(eta, eps1, beta1); !slices.Equal(got, ref) {
				t.Fatalf("ε₁=%g η=%d: positions %v, reference %v", eps1, eta, got, ref)
			}
		}
	}
}

func TestSummaryPositionsMatchPaperExample(t *testing.T) {
	// Figure 3: η=100, ε₁=1/4 → summary elements at ranks 1,25,50,75,100,
	// i.e. zero-based positions 0,24,49,74,99.
	pos := capturePositions(100, 0.25, 5)
	want := []int64{0, 24, 49, 74, 99}
	if !slices.Equal(pos, want) {
		t.Errorf("positions = %v, want %v", pos, want)
	}
}

func TestSummaryPositionsTinyPartition(t *testing.T) {
	pos := capturePositions(2, 0.25, Beta(2, 0.25))
	if !slices.Equal(pos, []int64{0, 0, 1}) {
		t.Fatalf("positions = %v, want the run captured whole, [0 0 1]", pos)
	}
	for _, p := range pos {
		if p < 0 || p > 1 {
			t.Errorf("position %d out of range", p)
		}
	}
	if !slices.IsSorted(pos) {
		t.Error("positions must be non-decreasing")
	}
	if pos[0] != 0 {
		t.Error("first position must be 0 (partition minimum)")
	}
}

// TestSummaryAtMatchesSearch: the cursor's summary lookup, two candidates
// from the inverted capture rule, agrees with a bisection of CapturePos at
// every position of every (count, ε₁) of a grid, tiny partitions included;
// and a point bracket, one search of the summary, is the two-search one.
func TestSummaryAtMatchesSearch(t *testing.T) {
	counts := []int64{0, 1, 2, 3, 4, 5, 7, 10, 99, 100, 101, 161, 999, 1000, 1001, 4096, 65537, 123457}
	for _, eps := range []float64{0.5, 0.3, 0.25, 0.1, 0.02, 1.0 / 161, 0.01, 0.003, 0.001, 0.0007} {
		for _, n := range counts {
			s := &Summary{Part: &Partition{Count: n}, Values: make([]int64, Beta(n, eps)), eps1: eps}
			for i := range s.Values {
				s.Values[i] = 10 * s.pos(i) // the element at an entry's position
			}
			c := &Cursor{sum: s}
			for p := int64(-2); p <= n+1; p++ {
				i := sort.Search(len(s.Values), func(i int) bool { return s.pos(i) >= p })
				want, wantOK := int64(0), i < len(s.Values) && s.pos(i) == p
				if wantOK {
					want = s.Values[i]
				}
				if got, ok := c.summaryAt(p); got != want || ok != wantOK {
					t.Fatalf("count %d, ε₁ %g: summaryAt(%d) = %d, %v; the search finds %d, %v", n, eps, p, got, ok, want, wantOK)
				}
			}
			for _, v := range s.Values {
				for z := v - 1; z <= v+1; z++ {
					lo, hi := int64(0), n
					if i := s.CountLE(z) - 1; i >= 0 {
						lo = s.pos(i) + 1
					}
					if j := s.CountLE(z); j < len(s.Values) {
						hi = s.pos(j)
					}
					if glo, ghi := s.Bracket(z, z); glo != min(lo, hi) || ghi != hi {
						t.Fatalf("count %d, ε₁ %g: Bracket(%d, %d) = [%d, %d], two searches give [%d, %d]", n, eps, z, z, glo, ghi, lo, hi)
					}
				}
			}
		}
	}
}

func TestAddBatchSingle(t *testing.T) {
	dev := newDev(t)
	s := newStore(t, dev, 3, 0.25)
	data := []int64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	bd, err := s.AddBatch(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Merges != 0 {
		t.Errorf("Merges = %d", bd.Merges)
	}
	if s.TotalCount() != 10 || s.Steps() != 1 || s.PartitionCount() != 1 {
		t.Errorf("store state: count=%d steps=%d parts=%d", s.TotalCount(), s.Steps(), s.PartitionCount())
	}
	sums := s.Entries()
	if len(sums) != 1 {
		t.Fatal("want one summary")
	}
	got := readPartition(t, sums[0].Part)
	want := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if !slices.Equal(got, want) {
		t.Errorf("partition = %v", got)
	}
	// Summary values must be the elements at the exact positions.
	for i := range sums[0].Values {
		if p := sums[0].pos(i); sums[0].Values[i] != want[p] {
			t.Errorf("summary[%d] = %d, element at pos %d is %d", i, sums[0].Values[i], p, want[p])
		}
	}
}

func TestAddBatchEmpty(t *testing.T) {
	dev := newDev(t)
	s := newStore(t, dev, 3, 0.25)
	if _, err := s.AddBatch(nil, 1); err == nil {
		t.Error("empty batch: want error")
	}
}

// TestMergeCascade replays the paper's Figure 2 (κ=2, 13 time steps) and
// checks the partition layout at the milestones the figure shows.
func TestMergeCascadeFigure2(t *testing.T) {
	dev := newDev(t)
	s := newStore(t, dev, 2, 0.25)
	add := func(step int) {
		data := []int64{int64(step * 10), int64(step*10 + 1)}
		if _, err := s.AddBatch(data, step); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	levelCounts := func() []int {
		var out []int
		for _, lvl := range s.Describe() {
			out = append(out, lvl.Partitions)
		}
		return out
	}
	// levelPart returns the oldest partition at level lvl.
	levelPart := func(lvl int) *Partition {
		for _, e := range s.Entries() {
			if e.Part.Level == lvl {
				return e.Part
			}
		}
		t.Fatalf("no partition at level %d", lvl)
		return nil
	}

	for step := 1; step <= 2; step++ {
		add(step)
	}
	// "State after 2 timesteps": P1, P2 at level 0.
	if got := levelCounts(); !slices.Equal(got, []int{2}) {
		t.Errorf("after 2 steps: levels = %v", got)
	}

	add(3)
	// "State after 3 timesteps": merge into P1,3 at level 1.
	if got := levelCounts(); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("after 3 steps: levels = %v", got)
	}
	if p := levelPart(1); p.StartStep != 1 || p.EndStep != 3 {
		t.Errorf("merged partition covers [%d,%d], want [1,3]", p.StartStep, p.EndStep)
	}

	for step := 4; step <= 8; step++ {
		add(step)
	}
	// "State after 8 timesteps": P1,3 and P4,6 at level 1; P7, P8 at level 0.
	if got := levelCounts(); !slices.Equal(got, []int{2, 2}) {
		t.Errorf("after 8 steps: levels = %v", got)
	}

	for step := 9; step <= 13; step++ {
		add(step)
	}
	// "State after 13 timesteps": P1,9 at level 2; P10,12 at level 1; P13 at
	// level 0.
	if got := levelCounts(); !slices.Equal(got, []int{1, 1, 1}) {
		t.Errorf("after 13 steps: levels = %v", got)
	}
	if p := levelPart(2); p.StartStep != 1 || p.EndStep != 9 {
		t.Errorf("level-2 partition covers [%d,%d], want [1,9]", p.StartStep, p.EndStep)
	}
	if p := levelPart(1); p.StartStep != 10 || p.EndStep != 12 {
		t.Errorf("level-1 partition covers [%d,%d], want [10,12]", p.StartStep, p.EndStep)
	}
	if s.TotalCount() != 26 {
		t.Errorf("TotalCount = %d, want 26", s.TotalCount())
	}
}

// TestInvariantMaxKappa checks invariant 3 of DESIGN.md over a long run.
func TestInvariantMaxKappa(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(31))
	for _, kappa := range []int{2, 3, 5} {
		s := newStore(t, dev, kappa, 0.2)
		var all []int64
		for step := 1; step <= 40; step++ {
			batch := make([]int64, 20)
			for i := range batch {
				batch[i] = rng.Int63n(1 << 20)
			}
			all = append(all, batch...)
			if _, err := s.AddBatch(batch, step); err != nil {
				t.Fatal(err)
			}
			for _, lvl := range s.Describe() {
				if lvl.Partitions > kappa {
					t.Fatalf("kappa=%d: level %d holds %d partitions", kappa, lvl.Level, lvl.Partitions)
				}
			}
		}
		// Multiset preservation: concatenation of all partitions sorted ==
		// all data sorted.
		var merged []int64
		for _, e := range s.Entries() {
			part := readPartition(t, e.Part)
			if !slices.IsSorted(part) {
				t.Fatal("partition not sorted")
			}
			merged = append(merged, part...)
		}
		slices.Sort(merged)
		slices.Sort(all)
		if !slices.Equal(merged, all) {
			t.Fatalf("kappa=%d: multiset not preserved", kappa)
		}
	}
}

// TestInstallLargeStepInMemory installs a step of 2²⁰+1 values, three times
// the largest step a figure writes. It is sorted in memory like every step:
// its partition is the sorted step, the install's device I/O is its load —
// the partition write — and no file but the partition is opened.
func TestInstallLargeStepInMemory(t *testing.T) {
	dev, err := disk.NewManagerOn(disk.NewMemBackend(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(dev, Config{Kappa: 2, Eps1: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	data := make([]int64, 1<<20+1)
	for i := range data {
		data[i] = rng.Int63n(1<<40) - 1<<39
	}
	want := slices.Clone(data)
	slices.Sort(want)

	var opened []string
	dev.SetFault(func(op disk.Op, name string, block int64) error {
		if op == disk.OpOpen {
			opened = append(opened, name)
		}
		return nil
	})
	s.Sort(data)
	s.Seal(data, 0)
	before := dev.Stats()
	bd, step, err := s.InstallOne()
	if err != nil || step != 1 {
		t.Fatalf("InstallOne = step %d, %v; want step 1", step, err)
	}
	if io := dev.Stats().Sub(before); io != bd.LoadIO || io.SeqWrites == 0 {
		t.Errorf("install did %+v, its load %+v; want the partition write to be all of it", io, bd.LoadIO)
	}
	dev.SetFault(nil)
	for _, name := range opened {
		if ok, _ := path.Match("part-*.dat", path.Base(name)); !ok {
			t.Errorf("install opened %s; want its partition alone", name)
		}
	}
	if got := readPartition(t, s.Entries()[0].Part); !slices.Equal(got, want) {
		t.Error("partition differs from the sorted step")
	}
}

func TestSummaryExactRanks(t *testing.T) {
	dev := newDev(t)
	s := newStore(t, dev, 3, 0.1)
	rng := rand.New(rand.NewSource(41))
	var all []int64
	for step := 1; step <= 10; step++ {
		batch := make([]int64, 100)
		for i := range batch {
			batch[i] = rng.Int63n(1 << 16)
		}
		all = append(all, batch...)
		if _, err := s.AddBatch(batch, step); err != nil {
			t.Fatal(err)
		}
	}
	_ = all
	for _, e := range s.Entries() {
		part := readPartition(t, e.Part)
		for i := range e.Values {
			if p := e.pos(i); e.Values[i] != part[p] {
				t.Fatalf("summary value %d at pos %d disagrees with partition element %d",
					e.Values[i], p, part[p])
			}
		}
		if e.Values[0] != part[0] {
			t.Error("summary[0] must be the partition minimum")
		}
	}
}

func TestCountLE(t *testing.T) {
	s := &Summary{Values: []int64{1, 25, 50, 75, 100}}
	cases := []struct {
		x    int64
		want int
	}{{0, 0}, {1, 1}, {24, 1}, {25, 2}, {100, 5}, {200, 5}}
	for _, c := range cases {
		if got := s.CountLE(c.x); got != c.want {
			t.Errorf("CountLE(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestBracket(t *testing.T) {
	p := &Partition{Count: 100}
	s := &Summary{Part: p, Values: []int64{1, 25, 50, 75, 100}, eps1: 0.25}
	// u=30, v=60: largest value ≤ 30 is 25 at pos 24 → lo=25; smallest value
	// > 60 is 75 at pos 74 → hi=74.
	lo, hi := s.Bracket(30, 60)
	if lo != 25 || hi != 74 {
		t.Errorf("Bracket(30,60) = [%d,%d], want [25,74]", lo, hi)
	}
	// u below min: lo=0... actually 1 ≤ u=0? no: no summary value ≤ 0 → lo=0.
	lo, hi = s.Bracket(0, 10)
	if lo != 0 || hi != 24 {
		t.Errorf("Bracket(0,10) = [%d,%d], want [0,24]", lo, hi)
	}
	// v above max: hi=Count.
	lo, hi = s.Bracket(90, 200)
	if lo != 75 || hi != 100 {
		t.Errorf("Bracket(90,200) = [%d,%d], want [75,100]", lo, hi)
	}
}

// TestCursorRank checks the block-granular search against brute force.
func TestCursorRank(t *testing.T) {
	dev := newDev(t)
	s := newStore(t, dev, 3, 0.25)
	rng := rand.New(rand.NewSource(43))
	data := make([]int64, 200)
	for i := range data {
		data[i] = rng.Int63n(500)
	}
	if _, err := s.AddBatch(data, 1); err != nil {
		t.Fatal(err)
	}
	sorted := slices.Clone(data)
	slices.Sort(sorted)
	sum := s.Entries()[0]

	for _, pin := range []bool{true, false} {
		// Cursor probes must stay inside [u,v]; open with the full probe
		// range used below.
		cur, err := NewCursor(sum, 0, 499, pin)
		if err != nil {
			t.Fatal(err)
		}
		for _, z := range []int64{sorted[0], sorted[50], sorted[100], sorted[199], 0, 499} {
			got, err := cur.Rank(z)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > z }))
			if got != want {
				t.Errorf("pin=%v Rank(%d) = %d, want %d", pin, z, got, want)
			}
		}
		cur.Close() //nolint:errcheck
	}
}

// TestCursorNarrowingAndPinning runs a narrowing bisection the way the
// engine's sweep does — SeekTo, then Rank, for each probe — and verifies that
// every probe stays exact and that, once the probes close in on one block, a
// probe inside the pinned block does no I/O.
func TestCursorNarrowingAndPinning(t *testing.T) {
	dev := newDev(t)
	// Columnar, as the engine writes partitions: a SeekTo bracket spans one
	// summary gap of several blocks, and the blocks' bounds settle the
	// bisection steps outside the pinned one without a read.
	if err := dev.SetBlockFormat(disk.FormatColumnar); err != nil {
		t.Fatal(err)
	}
	s := newStore(t, dev, 3, 0.25)
	data := make([]int64, 512)
	for i := range data {
		data[i] = int64(i * 2) // 0,2,4,...,1022
	}
	if _, err := s.AddBatch(data, 1); err != nil {
		t.Fatal(err)
	}
	sum := s.Entries()[0]
	cur, err := NewCursor(sum, 0, 1022, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	// Simulated bisection narrowing to value 500 (element index 250).
	u, v := int64(0), int64(1022)
	var lastReads int
	for v-u > 1 {
		z := u + (v-u)/2
		cur.SeekTo(z)
		r, err := cur.Rank(z)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(z/2+1, 512); r != want {
			t.Fatalf("Rank(%d) = %d, want %d", z, r, want)
		}
		if r > 250 {
			v = z
		} else {
			u = z
		}
		lastReads = cur.Reads()
	}
	// One more probe inside the pinned block must not read.
	cur.SeekTo(u)
	if _, err := cur.Rank(u); err != nil {
		t.Fatal(err)
	}
	if cur.Reads() != lastReads {
		t.Errorf("pinned probe still read: %d -> %d", lastReads, cur.Reads())
	}
}

// TestCursorWindows holds the bracket-only decode to a brute-force scan. On
// 64-byte blocks a summary gap (ε₁ = 0.25 of 400 values) covers several
// blocks, so runs straddle two blocks and some brackets span three or more;
// on 1 KB blocks many brackets lie inside one. For both formats, data with
// and without heavy duplicates, pinning on and off and the device cache on
// and off, every probe's Rank(z), Element(b-1) and Element(b) equal the
// sorted data's, and a second probe whose bracket lies inside the pinned
// frame reads nothing, from the backend or the cache.
func TestCursorWindows(t *testing.T) {
	for _, format := range []disk.BlockFormat{disk.FormatRaw, disk.FormatColumnar} {
		for _, dups := range []bool{false, true} {
			for _, pin := range []bool{true, false} {
				for _, cache := range []int{0, 16} {
					for _, bs := range []int{64, 1024} {
						t.Run(fmt.Sprintf("%s/dups=%v/pin=%v/cache=%d/block=%d", format, dups, pin, cache, bs), func(t *testing.T) {
							cursorWindows(t, bs, format, dups, pin, cache)
						})
					}
				}
			}
		}
	}
}

func cursorWindows(t *testing.T, blockSize int, format disk.BlockFormat, dups, pin bool, cache int) {
	dev, err := disk.NewManager(t.TempDir(), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetBlockFormat(format); err != nil {
		t.Fatal(err)
	}
	dev.SetCache(cache)
	s := newStore(t, dev, 3, 0.25)
	rng := rand.New(rand.NewSource(29))
	data := make([]int64, 400)
	for i := range data {
		if data[i] = rng.Int63n(1 << 20); dups {
			data[i] = rng.Int63n(12) * 100
		}
	}
	if _, err := s.AddBatch(data, 1); err != nil {
		t.Fatal(err)
	}
	sorted := slices.Clone(data)
	slices.Sort(sorted)
	sum := s.Entries()[0]
	cur, err := NewCursor(sum, 0, 0, pin)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	element := func(i int64) {
		t.Helper()
		if e, err := cur.Element(i); err != nil || e != sorted[i] {
			t.Fatalf("Element(%d) = %d, %v; want %d", i, e, err, sorted[i])
		}
	}
	wide, repinned := 0, 0
	for trial := 0; trial < 400; trial++ {
		z := sorted[rng.Intn(len(sorted))] + rng.Int63n(3) - 1
		if trial%4 == 0 {
			z = sorted[0] - 10 + rng.Int63n(sorted[len(sorted)-1]-sorted[0]+20)
		}
		cur.SeekTo(z)
		if lo, hi := sum.Bracket(z, z); lo < hi && cur.rr.ElementBlock(hi-1)-cur.rr.ElementBlock(lo) >= 2 {
			wide++
		}
		b, err := cur.Rank(z)
		if want := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > z })); err != nil || b != want {
			t.Fatalf("Rank(%d) = %d, %v; want %d", z, b, err, want)
		}
		if f := cur.pinned; f != nil {
			base := cur.rr.BlockStart(cur.pinIdx)
			if lo, hi := sum.Bracket(z, z); lo >= base && hi <= base+int64(f.Len()) {
				reads, hits := cur.Reads(), cur.CacheHits()
				cur.SeekTo(z)
				if again, err := cur.Rank(z); err != nil || again != b || cur.Reads() != reads || cur.CacheHits() != hits {
					t.Fatalf("second probe of %d inside the pinned frame: %d, %v, reads %d -> %d, hits %d -> %d",
						z, again, err, reads, cur.Reads(), hits, cur.CacheHits())
				}
				repinned++
			}
		}
		if b > 0 {
			element(b - 1)
		}
		if b < int64(len(sorted)) {
			element(b)
		}
	}
	if blockSize == 64 && wide == 0 {
		t.Error("no bracket spanned three blocks")
	}
	if blockSize == 1024 && pin && repinned == 0 {
		t.Error("no probe landed inside the pinned frame")
	}
}

// Property: Bracket always contains the true boundary for any z in [u,v].
func TestQuickBracketSound(t *testing.T) {
	dev := newDev(t)
	s := newStore(t, dev, 3, 0.2)
	rng := rand.New(rand.NewSource(47))
	data := make([]int64, 300)
	for i := range data {
		data[i] = rng.Int63n(1000)
	}
	if _, err := s.AddBatch(data, 1); err != nil {
		t.Fatal(err)
	}
	sorted := slices.Clone(data)
	slices.Sort(sorted)
	sum := s.Entries()[0]
	f := func(a, b, zRaw uint16) bool {
		u, v := int64(a%1000), int64(b%1000)
		if u > v {
			u, v = v, u
		}
		z := u + int64(zRaw)%(v-u+1)
		lo, hi := sum.Bracket(u, v)
		boundary := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > z }))
		return lo <= boundary && boundary <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dev := newDev(t)
	s := newStore(t, dev, 3, 0.2)
	rng := rand.New(rand.NewSource(53))
	for step := 1; step <= 10; step++ {
		batch := make([]int64, 50)
		for i := range batch {
			batch[i] = rng.Int63n(1 << 20)
		}
		if _, err := s.AddBatch(batch, step); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(dev, "MANIFEST.json", Config{Kappa: 3, Eps1: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalCount() != s.TotalCount() || loaded.Steps() != s.Steps() {
		t.Errorf("loaded count=%d steps=%d, want %d/%d",
			loaded.TotalCount(), loaded.Steps(), s.TotalCount(), s.Steps())
	}
	if loaded.PartitionCount() != s.PartitionCount() {
		t.Errorf("partitions %d vs %d", loaded.PartitionCount(), s.PartitionCount())
	}
	// Summaries rebuilt identically: the same values under the same ε₁ (with
	// the same count, the same positions).
	a, b := s.Entries(), loaded.Entries()
	for i := range a {
		if !slices.Equal(a[i].Values, b[i].Values) || a[i].eps1 != b[i].eps1 {
			t.Errorf("summary %d differs after reload", i)
		}
	}
	// Mismatched kappa must be rejected.
	if _, err := LoadStore(dev, "MANIFEST.json", Config{Kappa: 5, Eps1: 0.2}); err == nil {
		t.Error("kappa mismatch: want error")
	}
	if _, err := LoadStore(dev, "missing.json", Config{Kappa: 3, Eps1: 0.2}); err == nil {
		t.Error("missing manifest: want error")
	}
}

func TestUpdateBreakdownAccounting(t *testing.T) {
	dev := newDev(t)
	s, err := NewStore(dev, Config{Kappa: 2, Eps1: 0.25, SpillBatches: true})
	if err != nil {
		t.Fatal(err)
	}
	var bd UpdateBreakdown
	for step := 1; step <= 3; step++ {
		data := make([]int64, 64)
		for i := range data {
			data[i] = int64(step*1000 + i)
		}
		bd, err = s.AddBatch(data, step)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Step 3 triggers the first merge (kappa=2).
	if bd.Merges != 1 {
		t.Errorf("Merges = %d, want 1", bd.Merges)
	}
	if bd.LoadIO.SeqWrites == 0 {
		t.Error("load phase should write blocks")
	}
	if bd.MergeIO.SeqReads == 0 || bd.MergeIO.SeqWrites == 0 {
		t.Error("merge phase should read and write blocks")
	}
	if bd.MergeIO.RandReads != 0 {
		t.Error("merging must be sequential-only")
	}
	if bd.TotalIO() == 0 || bd.TotalTime() <= 0 {
		t.Error("totals should be positive")
	}
}

func TestPartitionString(t *testing.T) {
	p := &Partition{ID: 3, Level: 1, Count: 10, StartStep: 2, EndStep: 4, dev: newDev(t)}
	if got := p.String(); got == "" {
		t.Error("empty String()")
	}
	if p.Steps() != 3 {
		t.Errorf("Steps = %d", p.Steps())
	}
}

// TestCursorCraftedFrameIsAnError: a partition block crafted to pass its
// checksum but not to decode — its last delta cut short, the block's and the
// footer's checksums recomputed over it — makes Rank return an error naming
// the partition, and neither Rank nor Element panics.
func TestCursorCraftedFrameIsAnError(t *testing.T) {
	dev := newDev(t)
	if err := dev.SetBlockFormat(disk.FormatColumnar); err != nil {
		t.Fatal(err)
	}
	s := newStore(t, dev, 3, 0.25)
	data := make([]int64, 64)
	for i := range data {
		data[i] = int64(i * 2)
	}
	if _, err := s.AddBatch(data, 1); err != nil {
		t.Fatal(err)
	}
	sum := s.Entries()[0]
	name := sum.Part.Name()
	h, err := dev.Backend().Open(name)
	if err != nil {
		t.Fatal(err)
	}
	size, err := h.Size()
	if err != nil {
		t.Fatal(err)
	}
	file := make([]byte, size)
	if _, err := h.ReadAt(file, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	h.Close() //nolint:errcheck
	// Version 2: a 36-byte trailer (index length at 16, footer CRC-32C at 24)
	// behind the index, whose first entry is block 0's offset, count, min,
	// max and CRC-32C (at 28), then its one checkpoint; block 1's follows.
	crc := func(p []byte) uint32 { return crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)) }
	trailer := file[size-36:]
	index := file[size-36-int64(binary.LittleEndian.Uint64(trailer[16:])) : size-36]
	start, end := binary.LittleEndian.Uint64(index[0:]), binary.LittleEndian.Uint64(index[36:])
	file[end-1] = 0x80 // the frame's last delta now runs past its end
	binary.LittleEndian.PutUint32(index[28:], crc(file[start:end]))
	binary.LittleEndian.PutUint32(trailer[24:], crc(file[size-36-int64(len(index)):size-12]))
	w, err := dev.Backend().Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(file); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cur, err := NewCursor(sum, 0, 126, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close() //nolint:errcheck
	refused := 0
	for z := int64(0); z <= 126; z++ {
		cur.SeekTo(z)
		if _, err := cur.Rank(z); err != nil {
			if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "decode") {
				t.Errorf("Rank(%d): %v; want a decode error naming %s", z, err, name)
			}
			refused++
		}
		for i := range int64(64) {
			cur.Element(i) //nolint:errcheck // any outcome but a panic
		}
	}
	if refused == 0 {
		t.Error("no probe of the crafted block failed")
	}
}

// TestCursorStrideReads runs one probe sequence — SeekTo, Rank and the
// boundary's two Elements, the sweep's pattern — twice over a partition of
// many-stride blocks: first on a device that has read none of its blocks
// (each block's first read is whole), then again, when every read fetches
// the strides it decodes. Both passes give the sorted data's answers and,
// with no cache, the same random reads, cache hits and skips; the second
// moves a few strides a read, not the block, and the strides a pinned frame
// lacks come as stride reads, free in RandReads. With a cache the kept
// stride frames answer too.
func TestCursorStrideReads(t *testing.T) {
	for _, cache := range []int{0, 8} {
		t.Run(fmt.Sprintf("cache=%d", cache), func(t *testing.T) {
			dev, err := disk.NewManager(t.TempDir(), 4096)
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.SetBlockFormat(disk.FormatColumnar); err != nil {
				t.Fatal(err)
			}
			dev.SetCache(cache)
			s := newStore(t, dev, 3, 0.002)
			rng := rand.New(rand.NewSource(31))
			data := make([]int64, 40_000)
			for i := range data {
				data[i] = rng.Int63n(1 << 24)
			}
			if _, err := s.AddBatch(data, 1); err != nil {
				t.Fatal(err)
			}
			slices.Sort(data)
			sum := s.Entries()[0]
			probes := make([]int64, 300)
			for i := range probes {
				probes[i] = data[rng.Intn(len(data))] + rng.Int63n(3) - 1
			}
			pass := func() (disk.Stats, [3]int) {
				st := dev.Stats()
				cur, err := NewCursor(sum, 0, 0, true)
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close() //nolint:errcheck
				for _, z := range probes {
					cur.SeekTo(z)
					b, err := cur.Rank(z)
					if want := int64(sort.Search(len(data), func(i int) bool { return data[i] > z })); err != nil || b != want {
						t.Fatalf("Rank(%d) = %d, %v; want %d", z, b, err, want)
					}
					for _, i := range []int64{b - 1, b} {
						if i < 0 || i >= int64(len(data)) {
							continue
						}
						if e, err := cur.Element(i); err != nil || e != data[i] {
							t.Fatalf("Element(%d) = %d, %v; want %d", i, e, err, data[i])
						}
					}
				}
				return dev.Stats().Sub(st), [3]int{cur.Reads(), cur.CacheHits(), cur.Skips()}
			}
			first, firstCur := pass()
			warm, warmCur := pass()
			if cache == 0 && (firstCur != warmCur || first.RandReads != warm.RandReads) {
				t.Errorf("reads, hits, skips: first pass %v, warm %v; want the same", firstCur, warmCur)
			}
			if warm.BytesRead*5 > warm.RandReads*4096 || (cache == 0 && warm.StrideReads == 0) {
				t.Errorf("warm pass: %v, %d bytes; want at most a fifth of a block a read, and stride reads", warm, warm.BytesRead)
			}
			t.Logf("first pass: %v, %d bytes; warm: %v, %d bytes", first, first.BytesRead, warm, warm.BytesRead)
		})
	}
}
