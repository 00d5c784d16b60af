package disk

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// countingBackend counts the opens that reach a backend and the closes of the
// handles they return, and which files hold an open handle.
type countingBackend struct {
	Backend
	mu     sync.Mutex
	opens  int
	closes int
	open   map[string]int // name → its handles not yet closed
}

func newCountingBackend(b Backend) *countingBackend {
	return &countingBackend{Backend: b, open: make(map[string]int)}
}

func (b *countingBackend) Open(name string) (ReadHandle, error) {
	h, err := b.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.opens++
	b.open[name]++
	return &countedHandle{ReadHandle: h, b: b, name: name}, nil
}

// counts returns the opens, the closes and the open handles of name.
func (b *countingBackend) counts(name string) (opens, closes, open int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens, b.closes, b.open[name]
}

type countedHandle struct {
	ReadHandle
	b      *countingBackend
	name   string
	closed bool // guarded by b.mu
}

func (h *countedHandle) Close() error {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	if h.closed {
		return fmt.Errorf("%s: handle closed twice", h.name)
	}
	h.closed = true
	h.b.closes++
	if h.b.open[h.name]--; h.b.open[h.name] == 0 {
		delete(h.b.open, h.name)
	}
	return h.ReadHandle.Close()
}

func countingDev(t *testing.T) (*Manager, *countingBackend) {
	t.Helper()
	cb := newCountingBackend(NewMemBackend())
	return fmtDev(t, cb, 64, FormatColumnar), cb
}

// TestOneOpenPerFile: both readers of a file share one backend handle, which
// outlives them idle. Stats.Opens and the OpOpen gate see the real open only,
// and removing the file closes its idle handle.
func TestOneOpenPerFile(t *testing.T) {
	m, cb := countingDev(t)
	vals := sortedVals(100)
	writeFmt(t, m, "a.dat", FormatColumnar, vals)
	s0 := m.Stats()
	for i := range 3 {
		rr, err := m.OpenRandom("a.dat")
		if err != nil {
			t.Fatal(err)
		}
		if got := scanFile(t, m, "a.dat"); !slices.Equal(got, vals) {
			t.Fatalf("round %d: scan beside a random reader read other values", i)
		}
		if _, err := rr.Block(rr.Blocks() - 1); err != nil {
			t.Fatal(err)
		}
		rr.Close() //nolint:errcheck
		if i == 0 {
			// Every later open finds the handle: a fault on a real open
			// cannot reach it.
			m.SetFault(func(op Op, name string, block int64) error {
				if op == OpOpen {
					return errors.New("a real open")
				}
				return nil
			})
		}
	}
	if opens, closes, open := cb.counts("a.dat"); opens != 1 || closes != 0 || open != 1 {
		t.Errorf("six readers: %d backend opens, %d closes, %d open; want 1, 0, 1", opens, closes, open)
	}
	if d := m.Stats().Sub(s0); d.Opens != 1 {
		t.Errorf("Stats.Opens = %d over six readers, want the one real open", d.Opens)
	}
	m.SetFault(nil)
	if err := m.Remove("a.dat"); err != nil {
		t.Fatal(err)
	}
	if opens, closes, open := cb.counts("a.dat"); opens != closes || open != 0 {
		t.Errorf("after Remove: %d opens, %d closes, %d open", opens, closes, open)
	}
}

// TestHandleClosedAtLastRelease: a file removed under its readers keeps its
// handle until the last of them closes, and they read what they opened.
func TestHandleClosedAtLastRelease(t *testing.T) {
	m, cb := countingDev(t)
	vals := sortedVals(100)
	writeFmt(t, m, "b.dat", FormatColumnar, vals)
	r1, err := m.OpenSequential("b.dat")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.OpenRandom("b.dat")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("b.dat"); err != nil {
		t.Fatal(err)
	}
	if _, _, open := cb.counts("b.dat"); open != 1 {
		t.Fatalf("removed under two readers: %d handles open, want 1", open)
	}
	for i, want := range vals {
		if v, ok, err := r1.Next(); err != nil || !ok || v != want {
			t.Fatalf("element %d = %d, %v, %v", i, v, ok, err)
		}
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := r2.Block(0); err != nil || got[0] != vals[0] {
		t.Fatalf("Block(0) after Remove = %v, %v", got, err)
	}
	if _, _, open := cb.counts("b.dat"); open != 1 {
		t.Fatal("the handle closed while a reader held it")
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	if opens, closes, open := cb.counts("b.dat"); opens != 1 || closes != 1 || open != 0 {
		t.Errorf("after the last release: %d opens, %d closes, %d open; want 1, 1, 0", opens, closes, open)
	}
}

// TestIdleHandlesCapped: past maxIdleHandles files, the least recently
// released idle handle closes first, so open idle handles never exceed the
// cap. A reopened file keeps its index, and Manager.Close closes the rest.
func TestIdleHandlesCapped(t *testing.T) {
	m, cb := countingDev(t)
	n := maxIdleHandles + 40
	name := func(i int) string { return fmt.Sprintf("f%05d.dat", i) }
	for i := range n {
		writeFmt(t, m, name(i), FormatColumnar, []int64{int64(i), int64(i) + 1})
	}
	for i := range n {
		rr, err := m.OpenRandom(name(i))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := rr.Block(0); err != nil || got[0] != int64(i) {
			t.Fatalf("%s: Block(0) = %v, %v", name(i), got, err)
		}
		rr.Close() //nolint:errcheck
		if opens, closes, _ := cb.counts(""); opens-closes > maxIdleHandles {
			t.Fatalf("after %d files: %d handles open, cap %d", i+1, opens-closes, maxIdleHandles)
		}
	}
	opens, closes, _ := cb.counts("")
	if opens != n || opens-closes != maxIdleHandles {
		t.Errorf("%d files read once: %d opens, %d open; want %d, %d", n, opens, opens-closes, n, maxIdleHandles)
	}
	for i := range 40 {
		if _, _, open := cb.counts(name(i)); open != 0 {
			t.Errorf("%s, among the least recently released, is still open", name(i))
		}
	}
	// The first file's handle was closed; its index was not.
	ix := m.dev.files[m.key(name(0))].ix
	rr, err := m.OpenRandom(name(0))
	if err != nil {
		t.Fatal(err)
	}
	if rr.ix != ix {
		t.Error("reopening a file whose idle handle was closed parsed its footer again")
	}
	rr.Close() //nolint:errcheck
	m.Close()
	if opens, closes, _ := cb.counts(""); opens != closes {
		t.Errorf("after Manager.Close: %d opens, %d closes", opens, closes)
	}
}

// TestSharedHandleConcurrentReaders: goroutines that open, read and close
// readers of a few files at once, while one file is recreated and removed,
// read the right values, and leave at most one handle a file open.
func TestSharedHandleConcurrentReaders(t *testing.T) {
	m, cb := countingDev(t)
	names := []string{"c0.dat", "c1.dat", "c2.dat", "c3.dat"}
	for i, name := range names {
		writeFmt(t, m, name, FormatColumnar, sortedVals(200+i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for range 100 {
				i := rng.Intn(len(names) - 1) // the last file is the churned one
				rr, err := m.OpenRandom(names[i])
				if err != nil {
					errs <- err
					return
				}
				idx := rng.Int63n(rr.Blocks())
				got, err := rr.Block(idx)
				if err == nil && got[0] != 1000+7*rr.BlockStart(idx) {
					err = fmt.Errorf("%s block %d starts with %d", names[i], idx, got[0])
				}
				if cerr := rr.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	last := names[len(names)-1]
	for range 20 {
		if rr, err := m.OpenRandom(last); err == nil {
			rr.Close() //nolint:errcheck
		}
		if err := m.Remove(last); err != nil {
			t.Fatal(err)
		}
		writeFmt(t, m, last, FormatColumnar, sortedVals(50))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, name := range names {
		if _, _, open := cb.counts(name); open > 1 {
			t.Errorf("%s holds %d handles", name, open)
		}
	}
	m.Close()
	if opens, closes, _ := cb.counts(""); opens != closes {
		t.Errorf("after Manager.Close: %d opens, %d closes", opens, closes)
	}
}
