package extsort

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

func writeFile(t *testing.T, dev *disk.Manager, name string, vals []int64) {
	t.Helper()
	w, err := dev.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSlice(vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, dev *disk.Manager, name string) []int64 {
	t.Helper()
	r, err := dev.OpenSequential(name)
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

// mergeFiles merges the sorted inputs into out the way a level merge does:
// OpenRuns' merge drained by the run writer.
func mergeFiles(t *testing.T, dev *disk.Manager, inputs []string, out string) {
	t.Helper()
	m, closeAll, err := OpenRuns(dev, inputs)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll()
	if _, err := WriteRun(dev, out, m, nil); err != nil {
		t.Fatal(err)
	}
}

// drain reads src to its end.
func drain(t testing.TB, src Source) []int64 {
	t.Helper()
	var out []int64
	for {
		b, err := src.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			return out
		}
		out = append(out, b...)
	}
}

// failingSource yields its values, then an error.
type failingSource struct {
	vals []int64
	err  error
}

func (s *failingSource) NextBlock() ([]int64, error) {
	if len(s.vals) == 0 {
		return nil, s.err
	}
	b := s.vals
	s.vals = nil
	return b, nil
}

// cutSource yields vals in blocks of the lengths cuts cycles through (one
// block when cuts is empty), each copied into one buffer it reuses, so a
// reader that keeps a block past the next call reads a later one.
type cutSource struct {
	vals []int64
	cuts []byte
	k    int
	buf  []int64
}

func (s *cutSource) NextBlock() ([]int64, error) {
	n := len(s.vals)
	if len(s.cuts) > 0 {
		n = min(n, int(s.cuts[s.k%len(s.cuts)])+1)
		s.k++
	}
	s.buf = append(s.buf[:0], s.vals[:n]...)
	s.vals = s.vals[n:]
	return s.buf, nil
}

// TestWriteRun: the one run writer writes what its source yields, shows
// every element to the callback in order, and leaves no file behind when the
// source fails or steps backwards — a descending pair is an error, not a
// panic and not a run.
func TestWriteRun(t *testing.T) {
	boom := errors.New("boom")
	long := make([]int64, 100) // several 8-element blocks
	for i := range long {
		long[i] = int64(i / 3)
	}
	cases := []struct {
		name    string
		src     Source
		want    []int64 // written and seen by the callback
		seen    []int64 // seen before a failure
		wantErr string
	}{
		{name: "empty", src: SliceSource(nil)},
		{name: "sorted", src: SliceSource([]int64{-4, 0, 7}), want: []int64{-4, 0, 7}},
		{name: "duplicates across blocks", src: SliceSource(long), want: long},
		{name: "descending pair", src: SliceSource([]int64{3, 1, 2}), seen: []int64{3}, wantErr: "not sorted"},
		{name: "descending after a block", src: SliceSource(append(slices.Clone(long), 5)), seen: long, wantErr: "not sorted"},
		{name: "source error", src: &failingSource{vals: []int64{1, 2}, err: boom}, seen: []int64{1, 2}, wantErr: "boom"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := newDev(t)
			var seen []int64
			n, err := WriteRun(dev, "run", tc.src, func(b []int64) { seen = append(seen, b...) })
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				if dev.Exists("run") {
					t.Error("failed run was not aborted")
				}
				if !slices.Equal(seen, tc.seen) {
					t.Errorf("callback saw %v, want %v", seen, tc.seen)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(tc.want)) {
				t.Errorf("count = %d, want %d", n, len(tc.want))
			}
			if got := readAll(t, dev, "run"); !slices.Equal(got, tc.want) {
				t.Errorf("wrote %v, want %v", got, tc.want)
			}
			if !slices.Equal(seen, tc.want) {
				t.Errorf("callback saw %v, want %v", seen, tc.want)
			}
		})
	}
}

func TestMergerBasic(t *testing.T) {
	m := NewMerger(
		SliceSource([]int64{1, 4, 7}),
		SliceSource([]int64{2, 5, 8}),
		SliceSource([]int64{3, 6, 9}),
		SliceSource(nil),
	)
	want := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := drain(t, m); !slices.Equal(got, want) {
		t.Errorf("merged = %v, want %v", got, want)
	}
}

func TestMergerEmpty(t *testing.T) {
	if b, err := NewMerger().NextBlock(); len(b) != 0 || err != nil {
		t.Errorf("empty merger yields %v, %v; want it exhausted", b, err)
	}
}

// Property: merging any set of sorted slices yields the sorted multiset
// union.
func TestQuickMerger(t *testing.T) {
	f := func(a, b, c []int64) bool {
		slices.Sort(a)
		slices.Sort(b)
		slices.Sort(c)
		got := drain(t, NewMerger(SliceSource(a), SliceSource(b), SliceSource(c)))
		want := slices.Concat(a, b, c)
		slices.Sort(want)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// fuzzValue maps a byte onto a small value range that repeats often, with
// both ends of int64 at its edges.
func fuzzValue(b byte) int64 {
	switch b {
	case 0:
		return math.MinInt64
	case 255:
		return math.MaxInt64
	}
	return int64(b) - 128
}

// FuzzMerger holds the merge tree to slices.Sort of its inputs' union: up to
// 16 sorted sources (the bytes of data dealt round-robin, each repeated reps
// times, so many sources are empty and most values repeat) cut into blocks
// of fuzzed lengths, drained through WriteRun. With descent set, one input
// steps backwards at a fuzzed position, and the run must be refused and
// leave no file.
func FuzzMerger(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0), []byte{}, uint32(0))
	f.Add([]byte{0, 255, 7, 7, 128}, uint8(3), uint16(2), []byte{0, 3}, uint32(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(11), uint16(200), []byte{200, 1, 63}, uint32(0))
	f.Add([]byte("the quick brown fox"), uint8(5), uint16(40), []byte{9}, uint32(77))
	f.Add([]byte("jumps"), uint8(1), uint16(1), []byte{0}, uint32(99)) // one value a block: the descent crosses two
	f.Fuzz(func(t *testing.T, data []byte, k uint8, reps uint16, cuts []byte, descent uint32) {
		runs := make([][]int64, k%17)
		if len(runs) == 0 {
			data = nil
		}
		for range int(reps%64) + 1 {
			for i, b := range data {
				runs[i%len(runs)] = append(runs[i%len(runs)], fuzzValue(b))
			}
		}
		for _, run := range runs {
			slices.Sort(run)
		}
		want := slices.Concat(runs...)
		slices.Sort(want)
		damaged := false
		if descent != 0 {
			for d := range runs {
				run := runs[(int(descent)+d)%len(runs)]
				if len(run) < 2 {
					continue
				}
				p := 1 + int(descent>>5)%(len(run)-1)
				if run[p-1] == math.MinInt64 {
					run[p-1] = 0
				}
				run[p] = run[p-1] - 1
				damaged = true
				break
			}
		}
		sources := make([]Source, len(runs))
		for i, run := range runs {
			sources[i] = &cutSource{vals: run, cuts: cuts}
		}
		dev := newMemDev(t)
		var seen []int64
		n, err := WriteRun(dev, "run", NewMerger(sources...), func(b []int64) { seen = append(seen, b...) })
		if damaged {
			if err == nil || !strings.Contains(err.Error(), "not sorted") {
				t.Fatalf("a descending input gave err = %v, want one containing \"not sorted\"", err)
			}
			if dev.Exists("run") {
				t.Fatal("a refused run left its file")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(want)) || !slices.Equal(seen, want) {
			t.Fatalf("merge of %d runs gave %d values; not slices.Sort of their union", len(runs), n)
		}
		if got := readAll(t, dev, "run"); !slices.Equal(got, want) {
			t.Fatal("the run's file does not hold what the merge yielded")
		}
	})
}

// BenchmarkMerger drains an in-memory merge of 11 sorted runs — the inputs of
// a κ = 10 level merge — and reports ns per merged value.
func BenchmarkMerger(b *testing.B) {
	for _, n := range []int{1000, 10000, 32768} {
		b.Run(fmt.Sprintf("runs=11/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			runs := make([][]int64, 11)
			for i := range runs {
				runs[i] = make([]int64, n)
				for j := range runs[i] {
					runs[i][j] = rng.Int63n(1 << 40)
				}
				slices.Sort(runs[i])
			}
			sources := make([]Source, len(runs))
			b.ResetTimer()
			for range b.N {
				for i, run := range runs {
					sources[i] = SliceSource(run)
				}
				m := NewMerger(sources...)
				for {
					blk, err := m.NextBlock()
					if err != nil {
						b.Fatal(err)
					}
					if len(blk) == 0 {
						break
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*11*n), "ns/value")
		})
	}
}

func TestSortSlice(t *testing.T) {
	dev := newDev(t)
	data := []int64{5, 3, 9, 1, 1, 7}
	if err := SortSlice(dev, data, "out"); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, dev, "out")
	want := []int64{1, 1, 3, 5, 7, 9}
	if !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	// Input must be untouched.
	if !slices.Equal(data, []int64{5, 3, 9, 1, 1, 7}) {
		t.Error("SortSlice mutated its input")
	}
}

// TestMergeFiles: the merge every level merge runs yields the sorted union
// of its inputs with sequential I/O only (Lemma 6).
func TestMergeFiles(t *testing.T) {
	dev := newDev(t)
	writeFile(t, dev, "a", []int64{1, 3, 5})
	writeFile(t, dev, "b", []int64{2, 4, 6})
	before := dev.Stats()
	mergeFiles(t, dev, []string{"a", "b"}, "out")
	if d := dev.Stats().Sub(before); d.RandReads != 0 || d.SeqReads == 0 {
		t.Errorf("merge did %+v; want sequential reads only", d)
	}
	if got := readAll(t, dev, "out"); !slices.Equal(got, []int64{1, 2, 3, 4, 5, 6}) {
		t.Errorf("got %v", got)
	}
}
