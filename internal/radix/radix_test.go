package radix

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/workload"
)

// check sorts a copy of in with Sort and with slices.Sort and requires the
// same result.
func check(t *testing.T, name string, in, buf []int64) {
	t.Helper()
	got, want := slices.Clone(in), slices.Clone(in)
	Sort(got, buf)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d, cap(buf)=%d): Sort differs from slices.Sort", name, len(in), cap(buf))
	}
}

// shapes are the input orders every length is sorted in.
var shapes = []struct {
	name string
	make func(rng *rand.Rand, n int) []int64
}{
	{"uniform30", func(rng *rand.Rand, n int) []int64 { return fill(n, func(int) int64 { return rng.Int63n(1 << 30) }) }},
	{"fullrange", func(rng *rand.Rand, n int) []int64 {
		extremes := []int64{math.MinInt64, math.MaxInt64, -1, 0}
		return fill(n, func(i int) int64 {
			if rng.Intn(8) == 0 {
				return extremes[rng.Intn(len(extremes))]
			}
			return int64(rng.Uint64())
		})
	}},
	{"negative", func(rng *rand.Rand, n int) []int64 { return fill(n, func(int) int64 { return -rng.Int63n(1 << 20) }) }},
	{"sorted", func(_ *rand.Rand, n int) []int64 { return fill(n, func(i int) int64 { return int64(i) * 3 }) }},
	{"reverse", func(_ *rand.Rand, n int) []int64 { return fill(n, func(i int) int64 { return int64(n-i) << 20 }) }},
	{"nearlysorted", func(rng *rand.Rand, n int) []int64 {
		a := fill(n, func(i int) int64 { return int64(i) })
		for range min(n, n/100+1) {
			i, j := rng.Intn(n), rng.Intn(n)
			a[i], a[j] = a[j], a[i]
		}
		return a
	}},
	{"allequal", func(_ *rand.Rand, n int) []int64 { return fill(n, func(int) int64 { return -42 }) }},
	{"twovalues", func(rng *rand.Rand, n int) []int64 {
		return fill(n, func(int) int64 { return int64(rng.Intn(2)) * math.MinInt64 })
	}},
}

func fill(n int, f func(i int) int64) []int64 {
	a := make([]int64, n)
	for i := range a {
		a[i] = f(i)
	}
	return a
}

var lengths = []int{0, 1, 2, Cutoff - 1, Cutoff, Cutoff + 1, 4000, 32768, 1<<16 + 1}

// TestSortMatchesSlicesSort holds Sort to slices.Sort on every length and
// shape, with a nil, a short and a long scratch.
func TestSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range shapes {
		for _, n := range lengths {
			in := sh.make(rng, n)
			for _, buf := range [][]int64{nil, make([]int64, n/2), make([]int64, 3, 2*n+5)} {
				check(t, sh.name, in, buf)
			}
		}
	}
}

// TestSortWorkloads sorts every generator's values, as the write path sees
// them, at the step sizes the benchmark workloads write.
func TestSortWorkloads(t *testing.T) {
	for _, name := range append(workload.Names(), "zipf") {
		for _, n := range []int{1000, 4000, 32768} {
			g, err := workload.ByName(name, int64(n))
			if err != nil {
				t.Fatal(err)
			}
			check(t, name, workload.Fill(g, n), nil)
		}
	}
}

// TestSortReusesScratch: a scratch large enough is the one handed back, so
// a caller that keeps it sorts without allocating.
func TestSortReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := fill(4000, func(int) int64 { return rng.Int63() })
	a := make([]int64, len(in))
	buf := Sort(slices.Clone(in), nil)
	allocs := testing.AllocsPerRun(10, func() {
		copy(a, in)
		if out := Sort(a, buf); &out[:1][0] != &buf[:1][0] {
			t.Fatal("Sort replaced a scratch that was large enough")
		}
	})
	if allocs != 0 {
		t.Fatalf("Sort with a grown scratch allocated %.1f times, want 0", allocs)
	}
}

// TestSortTailMatchesSlicesSort holds SortTail to slices.Sort on every
// shape and length, with the sorted prefix empty, one key, half, all but
// one and whole, and a nil and a long scratch: the tail is the shape's keys
// after the prefix, so it lands below, inside and above the prefix.
func TestSortTailMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sh := range shapes {
		for _, n := range lengths {
			in := sh.make(rng, n)
			for _, p := range []int{0, min(1, n), n / 2, max(n-1, 0), n} {
				slices.Sort(in[:p])
				want := slices.Sorted(slices.Values(in))
				for _, buf := range [][]int64{nil, make([]int64, 3, 2*n+5)} {
					got := slices.Clone(in)
					SortTail(got, p, buf)
					if !slices.Equal(got, want) {
						t.Fatalf("%s (n=%d, sorted=%d, cap(buf)=%d): SortTail differs from slices.Sort", sh.name, n, p, cap(buf))
					}
				}
			}
		}
	}
}

// FuzzSort holds Sort to slices.Sort on arbitrary keys: the input bytes are
// read as little-endian int64s, and repeated to reach past the cutoff.
func FuzzSort(f *testing.F) {
	f.Add([]byte{}, uint16(1))
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<63), uint16(300))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\x7f\x00\x00\x00\x00\x00\x00\x00\x80\x01"), uint16(Cutoff))
	f.Fuzz(func(t *testing.T, data []byte, reps uint16) {
		var keys []int64
		for len(data) >= 8 {
			keys = append(keys, int64(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		in := make([]int64, 0, len(keys)*int(reps%1024+1))
		for r := range int(reps%1024 + 1) {
			for _, k := range keys {
				in = append(in, k^int64(r&7))
			}
		}
		check(t, "fuzz", in, nil)
	})
}

// BenchmarkSort sorts each shape with Sort and, in the row beside it, with
// slices.Sort (pdqsort), at GK's buffer size and at a firehose step.
func BenchmarkSort(b *testing.B) {
	for _, n := range []int{4000, 32768} {
		for _, sh := range shapes {
			in := sh.make(rand.New(rand.NewSource(3)), n)
			a := make([]int64, n)
			var buf []int64
			for _, k := range []struct {
				name string
				sort func()
			}{
				{"radix", func() { buf = Sort(a, buf) }},
				{"pdqsort", func() { slices.Sort(a) }},
			} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", sh.name, n, k.name), func(b *testing.B) {
					for range b.N {
						copy(a, in)
						k.sort()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
				})
			}
		}
	}
}
