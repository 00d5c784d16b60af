package partition

import (
	"math/rand"
	"slices"
	"sort"
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
	s, err := NewStore(dev, Config{Kappa: kappa, Eps1: eps1, SortMemElements: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func readPartition(t *testing.T, p *Partition) []int64 {
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

func TestBeta1(t *testing.T) {
	// β₁ = ⌈1/ε₁ + 1⌉
	cases := []struct {
		eps1 float64
		want int
	}{{0.25, 5}, {0.5, 3}, {0.1, 11}, {0.125, 9}}
	for _, c := range cases {
		if got := (Config{Eps1: c.eps1}).Beta1(); got != c.want {
			t.Errorf("Beta1(%g) = %d, want %d", c.eps1, got, c.want)
		}
	}
}

func TestSummaryPositionsMatchPaperExample(t *testing.T) {
	// Figure 3: η=100, ε₁=1/4 → summary elements at ranks 1,25,50,75,100,
	// i.e. zero-based positions 0,24,49,74,99.
	pos := summaryPositions(100, 0.25, 5)
	want := []int64{0, 24, 49, 74, 99}
	if !slices.Equal(pos, want) {
		t.Errorf("positions = %v, want %v", pos, want)
	}
}

func TestSummaryPositionsTinyPartition(t *testing.T) {
	pos := summaryPositions(2, 0.25, 5)
	if len(pos) != 5 {
		t.Fatalf("len = %d", len(pos))
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
	for i, p := range sums[0].Pos {
		if sums[0].Values[i] != want[p] {
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
		for _, lvl := range s.levels {
			out = append(out, len(lvl))
		}
		return out
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
	if p := s.levels[1][0].part; p.StartStep != 1 || p.EndStep != 3 {
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
	if p := s.levels[2][0].part; p.StartStep != 1 || p.EndStep != 9 {
		t.Errorf("level-2 partition covers [%d,%d], want [1,9]", p.StartStep, p.EndStep)
	}
	if p := s.levels[1][0].part; p.StartStep != 10 || p.EndStep != 12 {
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
			for lvl, es := range s.levels {
				if len(es) > kappa {
					t.Fatalf("kappa=%d: level %d holds %d partitions", kappa, lvl, len(es))
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
		if err := s.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExternalSortPath(t *testing.T) {
	dev := newDev(t)
	s, err := NewStore(dev, Config{Kappa: 3, Eps1: 0.1, SortMemElements: 16, SpillBatches: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	data := make([]int64, 500) // forces external sort (> 16)
	for i := range data {
		data[i] = rng.Int63n(1 << 30)
	}
	if _, err := s.AddBatch(data, 1); err != nil {
		t.Fatal(err)
	}
	got := readPartition(t, s.Entries()[0].Part)
	want := slices.Clone(data)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Error("external-sort partition incorrect")
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
			if e.Values[i] != part[e.Pos[i]] {
				t.Fatalf("summary value %d at pos %d disagrees with partition element %d",
					e.Values[i], e.Pos[i], part[e.Pos[i]])
			}
		}
		if e.Values[0] != part[0] {
			t.Error("summary[0] must be the partition minimum")
		}
	}
}

func TestCountLE(t *testing.T) {
	s := &Summary{Values: []int64{1, 25, 50, 75, 100}, Pos: []int64{0, 24, 49, 74, 99}}
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
	s := &Summary{Part: p, Values: []int64{1, 25, 50, 75, 100}, Pos: []int64{0, 24, 49, 74, 99}}
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

// TestCursorNarrowingAndPinning verifies that narrowed, pinned cursors stop
// doing I/O and stay correct.
func TestCursorNarrowingAndPinning(t *testing.T) {
	dev := newDev(t)
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
		r, err := cur.Rank(z)
		if err != nil {
			t.Fatal(err)
		}
		want := z/2 + 1
		if z < 0 {
			want = 0
		}
		if z >= 0 && z <= 1022 && r != min64(want, 512) {
			t.Fatalf("Rank(%d) = %d, want %d", z, r, min64(want, 512))
		}
		if r > 250 {
			v = z
			cur.NarrowUpper()
		} else {
			u = z
			cur.NarrowLower()
		}
		lastReads = cur.Reads()
	}
	lo, hi := cur.Bracket()
	if hi-lo > int64(dev.ElementsPerBlock()) {
		t.Errorf("bracket [%d,%d] did not narrow to a block", lo, hi)
	}
	// One more probe must not read (pinned).
	if _, err := cur.Rank(u); err != nil {
		t.Fatal(err)
	}
	if cur.Reads() != lastReads {
		t.Errorf("pinned probe still read: %d -> %d", lastReads, cur.Reads())
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
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
	if err := s.SaveManifest("MANIFEST.json"); err != nil {
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
	// Summaries rebuilt identically.
	a, b := s.Entries(), loaded.Entries()
	for i := range a {
		if !slices.Equal(a[i].Values, b[i].Values) || !slices.Equal(a[i].Pos, b[i].Pos) {
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

func TestDestroy(t *testing.T) {
	dev := newDev(t)
	s := newStore(t, dev, 3, 0.25)
	if _, err := s.AddBatch([]int64{1, 2, 3}, 1); err != nil {
		t.Fatal(err)
	}
	name := s.Entries()[0].Part.Name()
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	if dev.Exists(name) {
		t.Error("partition file survived Destroy")
	}
	if s.TotalCount() != 0 || s.PartitionCount() != 0 {
		t.Error("store not empty after Destroy")
	}
}

func TestUpdateBreakdownAccounting(t *testing.T) {
	dev := newDev(t)
	s, err := NewStore(dev, Config{Kappa: 2, Eps1: 0.25, SortMemElements: 1 << 16, SpillBatches: true})
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
