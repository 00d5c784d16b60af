package disk

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func newTestManager(t *testing.T, blockSize int) *Manager {
	t.Helper()
	m, err := NewManager(t.TempDir(), blockSize)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	for _, bs := range []int{0, -8, 7, 12} {
		if _, err := NewManager(t.TempDir(), bs); err == nil {
			t.Errorf("NewManager(blockSize=%d): want error", bs)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := newTestManager(t, 64) // 8 elements per block
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i * 3)
	}
	w, err := m.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := w.AppendSlice(vals); err != nil {
		t.Fatalf("AppendSlice: %v", err)
	}
	if w.Count() != 100 {
		t.Errorf("Count = %d, want 100", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := m.OpenSequential("f")
	if err != nil {
		t.Fatalf("OpenSequential: %v", err)
	}
	defer r.Close()
	if r.Count() != 100 {
		t.Errorf("reader Count = %d, want 100", r.Count())
	}
	for i, want := range vals {
		v, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("Next #%d: ok=%v err=%v", i, ok, err)
		}
		if v != want {
			t.Fatalf("Next #%d = %d, want %d", i, v, want)
		}
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Errorf("Next past EOF: ok=%v err=%v", ok, err)
	}
}

func TestWriterBlockAccounting(t *testing.T) {
	m := newTestManager(t, 64) // 8 elems/block
	w, err := m.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ { // 2 full blocks + 1 partial
		if err := w.Append(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.SeqWrites != 3 {
		t.Errorf("SeqWrites = %d, want 3", st.SeqWrites)
	}
	if st.BytesWritten != 20*ElementSize {
		t.Errorf("BytesWritten = %d, want %d", st.BytesWritten, 20*ElementSize)
	}
}

func TestReaderBlockAccounting(t *testing.T) {
	m := newTestManager(t, 64)
	w, _ := m.Create("f")
	for i := 0; i < 20; i++ {
		w.Append(int64(i)) //nolint:errcheck
	}
	w.Close() //nolint:errcheck
	before := m.Stats()
	r, err := m.OpenSequential("f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		_, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	got := m.Stats().Sub(before)
	if got.SeqReads != 3 {
		t.Errorf("SeqReads = %d, want 3", got.SeqReads)
	}
}

func TestRandomReader(t *testing.T) {
	m := newTestManager(t, 64) // 8 per block
	w, _ := m.Create("f")
	for i := 0; i < 50; i++ {
		w.Append(int64(i * 10)) //nolint:errcheck
	}
	w.Close() //nolint:errcheck

	rr, err := m.OpenRandom("f")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	if rr.Count() != 50 {
		t.Errorf("Count = %d, want 50", rr.Count())
	}
	if rr.Blocks() != 7 {
		t.Errorf("Blocks = %d, want 7", rr.Blocks())
	}
	before := m.Stats()
	// Last (partial) block has 2 elements.
	blk, err := rr.Block(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk) != 2 || blk[0] != 480 || blk[1] != 490 {
		t.Errorf("Block(6) = %v, want [480 490]", blk)
	}
	blk, err = rr.Block(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk) != 8 || blk[0] != 160 {
		t.Errorf("Block(2) = %v", blk)
	}
	got := m.Stats().Sub(before)
	if got.RandReads != 2 {
		t.Errorf("RandReads = %d, want 2", got.RandReads)
	}
	if _, err := rr.Block(7); err == nil {
		t.Error("Block(7): want out-of-range error")
	}
	if _, err := rr.Block(-1); err == nil {
		t.Error("Block(-1): want out-of-range error")
	}
}

func TestElementBlock(t *testing.T) {
	m := newTestManager(t, 64)
	w, _ := m.Create("f")
	for i := 0; i < 20; i++ {
		w.Append(int64(i)) //nolint:errcheck
	}
	w.Close() //nolint:errcheck
	rr, _ := m.OpenRandom("f")
	defer rr.Close()
	if got := rr.ElementBlock(0); got != 0 {
		t.Errorf("ElementBlock(0) = %d", got)
	}
	if got := rr.ElementBlock(7); got != 0 {
		t.Errorf("ElementBlock(7) = %d", got)
	}
	if got := rr.ElementBlock(8); got != 1 {
		t.Errorf("ElementBlock(8) = %d", got)
	}
}

func TestFaultInjection(t *testing.T) {
	m := newTestManager(t, 64)
	w, _ := m.Create("f")
	for i := 0; i < 20; i++ {
		w.Append(int64(i)) //nolint:errcheck
	}
	w.Close() //nolint:errcheck

	sentinel := errors.New("injected")
	m.SetFault(func(op Op, name string, block int64) error {
		if op == OpRandRead && block == 1 {
			return sentinel
		}
		return nil
	})
	rr, err := m.OpenRandom("f")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	if _, err := rr.Block(0); err != nil {
		t.Fatalf("Block(0): %v", err)
	}
	if _, err := rr.Block(1); !errors.Is(err, sentinel) {
		t.Fatalf("Block(1) err = %v, want injected", err)
	}
	m.SetFault(nil)
	if _, err := rr.Block(1); err != nil {
		t.Fatalf("Block(1) after clearing fault: %v", err)
	}
}

func TestFaultOnOpenAndWrite(t *testing.T) {
	m := newTestManager(t, 64)
	sentinel := errors.New("boom")
	m.SetFault(func(op Op, name string, block int64) error {
		if op == OpOpen {
			return sentinel
		}
		return nil
	})
	if _, err := m.Create("f"); !errors.Is(err, sentinel) {
		t.Errorf("Create under open-fault: %v", err)
	}
	m.SetFault(func(op Op, name string, block int64) error {
		if op == OpSeqWrite {
			return sentinel
		}
		return nil
	})
	w, err := m.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	for i := 0; i < 20 && werr == nil; i++ {
		werr = w.Append(int64(i))
	}
	if !errors.Is(werr, sentinel) {
		t.Errorf("Append under write-fault: %v", werr)
	}
	w.Abort()
	if m.Exists("f") {
		t.Error("Abort should remove the file")
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{SeqReads: 5, SeqWrites: 3, RandReads: 2, BytesRead: 100, BytesWritten: 50, Opens: 1}
	b := Stats{SeqReads: 1, SeqWrites: 1, RandReads: 1, BytesRead: 10, BytesWritten: 5, Opens: 1}
	d := a.Sub(b)
	if d.SeqReads != 4 || d.SeqWrites != 2 || d.RandReads != 1 {
		t.Errorf("Sub = %+v", d)
	}
	s := b.Add(b)
	if s.SeqReads != 2 || s.Total() != 6 {
		t.Errorf("Add = %+v, Total = %d", s, s.Total())
	}
	if a.Total() != 10 {
		t.Errorf("Total=%d", a.Total())
	}
}

func TestSizeAndRemove(t *testing.T) {
	m := newTestManager(t, 64)
	w, _ := m.Create("f")
	w.Append(1) //nolint:errcheck
	w.Append(2) //nolint:errcheck
	w.Close()   //nolint:errcheck
	n, err := m.Size("f")
	if err != nil || n != 2 {
		t.Errorf("Size = %d, %v", n, err)
	}
	if err := m.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if m.Exists("f") {
		t.Error("file should be gone")
	}
	if err := m.Remove("f"); err == nil {
		t.Error("double remove: want error")
	}
	if _, err := m.Size("f"); err == nil {
		t.Error("Size of missing file: want error")
	}
}

// Property: any slice of int64 survives an encode/write/read round trip in
// order, regardless of block alignment.
func TestQuickRoundTrip(t *testing.T) {
	dir := t.TempDir()
	idx := 0
	f := func(vals []int64) bool {
		idx++
		m, err := NewManager(dir, 64)
		if err != nil {
			return false
		}
		name := fmt.Sprintf("q-%d", idx)
		w, err := m.Create(name)
		if err != nil {
			return false
		}
		if err := w.AppendSlice(vals); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := m.OpenSequential(name)
		if err != nil {
			return false
		}
		defer r.Close()
		for _, want := range vals {
			v, ok, err := r.Next()
			if err != nil || !ok || v != want {
				return false
			}
		}
		_, ok, _ := r.Next()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpSeqRead: "seq-read", OpSeqWrite: "seq-write", OpRandRead: "rand-read", OpOpen: "open", Op(99): "op(99)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", int(op), got, want)
		}
	}
}
