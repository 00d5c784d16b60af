package partition

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
)

// buildPair loads identical data into a serial store and a parallel-merge
// store.
func buildPair(t *testing.T, workers int, steps, batch int, seed int64) (*Store, *Store) {
	t.Helper()
	mk := func(mw int) *Store {
		dev, err := disk.NewManager(t.TempDir(), 64)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStore(dev, Config{Kappa: 2, Eps1: 0.2, MergeWorkers: mw})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial, parallel := mk(1), mk(workers)
	rng := rand.New(rand.NewSource(seed))
	for step := 1; step <= steps; step++ {
		data := make([]int64, batch)
		for i := range data {
			data[i] = rng.Int63n(1 << 20)
		}
		if _, err := serial.AddBatch(data, step); err != nil {
			t.Fatal(err)
		}
		if _, err := parallel.AddBatch(data, step); err != nil {
			t.Fatal(err)
		}
	}
	return serial, parallel
}

func readStore(t *testing.T, s *Store) [][]int64 {
	t.Helper()
	var out [][]int64
	for _, e := range s.Entries() {
		r, err := e.Part.OpenSequential()
		if err != nil {
			t.Fatal(err)
		}
		var part []int64
		for {
			v, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			part = append(part, v)
		}
		r.Close() //nolint:errcheck
		out = append(out, part)
	}
	return out
}

func TestParallelMergeEquivalence(t *testing.T) {
	for _, workers := range []int{2, 4, 7} {
		serial, parallel := buildPair(t, workers, 15, 200, int64(workers))
		a, b := readStore(t, serial), readStore(t, parallel)
		if len(a) != len(b) {
			t.Fatalf("workers=%d: %d vs %d partitions", workers, len(a), len(b))
		}
		for i := range a {
			if !slices.Equal(a[i], b[i]) {
				t.Fatalf("workers=%d: partition %d differs", workers, i)
			}
		}
		// Summaries must be identical too (identical partitions + same ε₁).
		as, bs := serial.Entries(), parallel.Entries()
		for i := range as {
			if !slices.Equal(as[i].Values, bs[i].Values) || !slices.Equal(as[i].Pos, bs[i].Pos) {
				t.Fatalf("workers=%d: summary %d differs", workers, i)
			}
		}
	}
}

func TestParallelMergeDuplicateHeavy(t *testing.T) {
	// Few distinct values stress split-point dedup and range boundaries.
	mkData := func(rng *rand.Rand) []int64 {
		data := make([]int64, 300)
		for i := range data {
			data[i] = rng.Int63n(4)
		}
		return data
	}
	devA, _ := disk.NewManager(t.TempDir(), 64)
	devB, _ := disk.NewManager(t.TempDir(), 64)
	sa, err := NewStore(devA, Config{Kappa: 2, Eps1: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStore(devB, Config{Kappa: 2, Eps1: 0.25, MergeWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rngA := rand.New(rand.NewSource(9))
	rngB := rand.New(rand.NewSource(9))
	for step := 1; step <= 9; step++ {
		if _, err := sa.AddBatch(mkData(rngA), step); err != nil {
			t.Fatal(err)
		}
		if _, err := sb.AddBatch(mkData(rngB), step); err != nil {
			t.Fatal(err)
		}
	}
	a, b := readStore(t, sa), readStore(t, sb)
	if len(a) != len(b) {
		t.Fatalf("partition counts differ")
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("partition %d differs on duplicate-heavy data", i)
		}
	}
}

func TestSplitPoints(t *testing.T) {
	p := &Partition{Count: 100}
	e := entry{p, &Summary{Part: p, Values: []int64{1, 25, 50, 75, 100}, Pos: []int64{0, 24, 49, 74, 99}}}
	sp := splitPoints([]entry{e}, 4)
	if len(sp) == 0 || !slices.IsSorted(sp) {
		t.Errorf("splits = %v", sp)
	}
	// Duplicate summary values collapse.
	e2 := entry{p, &Summary{Part: p, Values: []int64{5, 5, 5, 5, 5}, Pos: []int64{0, 1, 2, 3, 4}}}
	sp = splitPoints([]entry{e2}, 4)
	if len(sp) > 1 {
		t.Errorf("duplicate splits not collapsed: %v", sp)
	}
}
