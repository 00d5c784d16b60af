package extsort

import (
	"errors"
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

// sortFile externally sorts file in into file out the way the store does:
// SortedStream's final merge drained by the run writer.
func sortFile(dev *disk.Manager, in, out string, cfg Config) (int64, error) {
	src, cleanup, err := SortedStream(dev, in, cfg)
	if err != nil {
		return 0, err
	}
	defer cleanup()
	return WriteRun(dev, out, src, nil)
}

// failingSource yields its values, then an error.
type failingSource struct {
	vals []int64
	err  error
}

func (s *failingSource) Next() (int64, bool, error) {
	if len(s.vals) == 0 {
		return 0, false, s.err
	}
	v := s.vals[0]
	s.vals = s.vals[1:]
	return v, true, nil
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
			n, err := WriteRun(dev, "run", tc.src, func(v int64) { seen = append(seen, v) })
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
	m, err := NewMerger(
		SliceSource([]int64{1, 4, 7}),
		SliceSource([]int64{2, 5, 8}),
		SliceSource([]int64{3, 6, 9}),
		SliceSource(nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for {
		v, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !slices.Equal(got, want) {
		t.Errorf("merged = %v, want %v", got, want)
	}
}

func TestMergerEmpty(t *testing.T) {
	m, err := NewMerger()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Next(); ok {
		t.Error("empty merger should be exhausted")
	}
}

// Property: merging any set of sorted slices yields the sorted multiset
// union.
func TestQuickMerger(t *testing.T) {
	f := func(a, b, c []int64) bool {
		slices.Sort(a)
		slices.Sort(b)
		slices.Sort(c)
		m, err := NewMerger(SliceSource(a), SliceSource(b), SliceSource(c))
		if err != nil {
			return false
		}
		var got []int64
		for {
			v, ok, err := m.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			got = append(got, v)
		}
		want := append(append(append([]int64{}, a...), b...), c...)
		slices.Sort(want)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
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

func TestSortFileSmall(t *testing.T) {
	dev := newDev(t)
	writeFile(t, dev, "in", []int64{9, 2, 5, 2, 8})
	n, err := sortFile(dev, "in", "out", Config{MemElements: 8})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("count = %d, want 5", n)
	}
	got := readAll(t, dev, "out")
	if !slices.Equal(got, []int64{2, 2, 5, 8, 9}) {
		t.Errorf("got %v", got)
	}
}

func TestSortFileEmpty(t *testing.T) {
	dev := newDev(t)
	writeFile(t, dev, "in", nil)
	n, err := sortFile(dev, "in", "out", Config{MemElements: 8})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("count = %d", n)
	}
	if got := readAll(t, dev, "out"); len(got) != 0 {
		t.Errorf("got %v, want empty", got)
	}
}

func TestSortFileMultiRunMultiPass(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(42))
	data := make([]int64, 1000)
	for i := range data {
		data[i] = rng.Int63n(1 << 30)
	}
	writeFile(t, dev, "in", data)
	// MemElements=8 forces 125 runs; FanIn=4 forces multiple merge passes.
	n, err := sortFile(dev, "in", "out", Config{MemElements: 8, FanIn: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Errorf("count = %d", n)
	}
	got := readAll(t, dev, "out")
	want := slices.Clone(data)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Error("multi-pass sort output incorrect")
	}
	// All intermediate run files must be gone: only in and out remain.
	if names, err := dev.List(""); err != nil || !slices.Equal(names, []string{"in", "out"}) {
		t.Errorf("run files not cleaned up: device holds %v (err %v)", names, err)
	}
}

func TestSortFileConfigValidation(t *testing.T) {
	dev := newDev(t)
	writeFile(t, dev, "in", []int64{1})
	if _, err := sortFile(dev, "in", "out", Config{MemElements: 0}); err == nil {
		t.Error("want error for MemElements=0")
	}
	if _, err := sortFile(dev, "in", "out", Config{MemElements: 4}); err == nil {
		t.Error("want error for MemElements below one block")
	}
}

func TestMergeFiles(t *testing.T) {
	dev := newDev(t)
	writeFile(t, dev, "a", []int64{1, 3, 5})
	writeFile(t, dev, "b", []int64{2, 4, 6})
	if err := MergeFiles(dev, []string{"a", "b"}, "out"); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, dev, "out"); !slices.Equal(got, []int64{1, 2, 3, 4, 5, 6}) {
		t.Errorf("got %v", got)
	}
}

func TestSortedStream(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(7))
	data := make([]int64, 500)
	for i := range data {
		data[i] = rng.Int63n(1000)
	}
	writeFile(t, dev, "in", data)
	src, cleanup, err := SortedStream(dev, "in", Config{MemElements: 16, FanIn: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	var got []int64
	for {
		v, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := slices.Clone(data)
	slices.Sort(want)
	if len(got) != 500 {
		t.Errorf("count = %d", len(got))
	}
	if !slices.Equal(got, want) {
		t.Error("SortedStream output incorrect")
	}
}

// Property: external sort is equivalent to slices.Sort for any input.
func TestQuickSortFile(t *testing.T) {
	dev := newDev(t)
	idx := 0
	f := func(data []int64) bool {
		idx++
		in := "qin"
		out := "qout"
		w, err := dev.Create(in)
		if err != nil {
			return false
		}
		if err := w.AppendSlice(data); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		if _, err := sortFile(dev, in, out, Config{MemElements: 8, FanIn: 3}); err != nil {
			return false
		}
		got := readAll(t, dev, out)
		want := slices.Clone(data)
		slices.Sort(want)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSortFileIsSequentialIOOnly(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(3))
	data := make([]int64, 300)
	for i := range data {
		data[i] = rng.Int63()
	}
	writeFile(t, dev, "in", data)
	before := dev.Stats()
	if _, err := sortFile(dev, "in", "out", Config{MemElements: 16, FanIn: 4}); err != nil {
		t.Fatal(err)
	}
	d := dev.Stats().Sub(before)
	if d.RandReads != 0 {
		t.Errorf("external sort made %d random reads; want 0 (Lemma 6 requires sequential I/O)", d.RandReads)
	}
}
