package hsq

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// openCountingBackend counts the opens that reach a backend and the closes
// of the read handles they return, per file.
type openCountingBackend struct {
	disk.Backend
	mu     sync.Mutex
	opens  int
	closes int
	open   map[string]int // name → its handles not yet closed
}

func newOpenCounting() *openCountingBackend {
	return &openCountingBackend{Backend: disk.NewMemBackend(), open: make(map[string]int)}
}

func (b *openCountingBackend) Open(name string) (disk.ReadHandle, error) {
	h, err := b.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.opens++
	b.open[name]++
	return &openCounted{ReadHandle: h, b: b, name: name}, nil
}

// counts returns the backend opens and closes so far, and the names of the
// files that hold an open handle.
func (b *openCountingBackend) counts() (opens, closes int, open []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for name := range b.open {
		open = append(open, name)
	}
	return b.opens, b.closes, open
}

type openCounted struct {
	disk.ReadHandle
	b      *openCountingBackend
	name   string
	closed bool // guarded by b.mu
}

func (h *openCounted) Close() error {
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

// countedDB opens a DB over an open-counting heap backend.
func countedDB(t *testing.T, kappa int) (*DB, *openCountingBackend) {
	t.Helper()
	cb := newOpenCounting()
	db, err := Open(Options{Epsilon: 0.02, Kappa: kappa, Device: cb, BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return db, cb
}

// fillSteps ends steps steps of n uniform values on st, recorded in orc.
func fillSteps(t *testing.T, st *Stream, orc *oracle.Oracle, seed int64, steps, n int) {
	t.Helper()
	gen := workload.NewUniform(seed)
	for range steps {
		b := workload.Fill(gen, n)
		st.ObserveSlice(b)
		orc.Add(b...)
		if _, err := st.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRepeatedQueriesOpenNothing: on an unchanged stream, the first accurate
// query opens each partition file once and every later one opens none, and
// each answer is within ε·N of the oracle's.
func TestRepeatedQueriesOpenNothing(t *testing.T) {
	db, cb := countedDB(t, 3)
	defer db.Close() //nolint:errcheck
	st, err := db.Stream("lat")
	if err != nil {
		t.Fatal(err)
	}
	orc := oracle.New(0)
	fillSteps(t, st, orc, 5, 9, 2000)
	for round := range 5 {
		// Targets of their own each round, so the probe memo does not answer
		// them and the sweep opens its cursors.
		phis := []float64{0.01 + 0.03*float64(round), 0.25, 0.5 + 0.07*float64(round), 0.999}
		before, _, _ := cb.counts()
		ans, err := st.Query(context.Background(), Request{Phis: phis})
		if err != nil {
			t.Fatal(err)
		}
		opens, _, _ := cb.counts()
		if p := st.Status().Partitions; p < 2 || (round == 0 && opens-before > p) || (round > 0 && opens != before) {
			t.Errorf("query %d over %d partitions: %d backend opens", round, p, opens-before)
		}
		for i, phi := range phis {
			r := int64(math.Ceil(phi * float64(orc.Count())))
			if e := orc.SpanError(r, ans.Values[i]); float64(e) > 0.02*float64(ans.N) {
				t.Errorf("query %d, φ=%g: rank error %d over ε·N = %g", round, phi, e, 0.02*float64(ans.N))
			}
		}
	}
}

// TestMergeClosesRetiredHandles: a merge removes the partitions it retires,
// and the device closes each one's handle then, or at the release of the
// last query that still held it; only live files keep a handle.
func TestMergeClosesRetiredHandles(t *testing.T) {
	db, cb := countedDB(t, 2)
	st, err := db.Stream("lat")
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewUniform(9)
	merges := 0
	for step := range 24 {
		st.ObserveSlice(workload.Fill(gen, 500))
		// A query beside the step holds cursors on the partitions the
		// step's merges retire.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := st.Query(context.Background(), Request{Phis: []float64{0.3, 0.7}}); err != nil {
				t.Error(err)
			}
		}()
		if _, err := st.EndStep(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		_, _, open := cb.counts()
		for _, name := range open {
			if !cb.Exists(name) {
				t.Fatalf("step %d: %s was removed, and its handle is still open", step, name)
			}
		}
		merges = st.Status().Merges
	}
	if merges == 0 {
		t.Fatal("no merge ran: the test shows nothing")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if opens, closes, _ := cb.counts(); opens != closes {
		t.Errorf("after Close: %d backend opens, %d closes", opens, closes)
	}
}

// TestDropAndCloseCloseHandles: DropStream closes the handles of the files it
// removes, and DB.Close every other one: backend opens equal closes.
func TestDropAndCloseCloseHandles(t *testing.T) {
	db, cb := countedDB(t, 3)
	for _, name := range []string{"a", "b"} {
		st, err := db.Stream(name)
		if err != nil {
			t.Fatal(err)
		}
		fillSteps(t, st, oracle.New(0), 3, 6, 1000)
		if _, err := st.Query(context.Background(), Request{Phis: []float64{0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DropStream("a"); err != nil {
		t.Fatal(err)
	}
	opens, closes, open := cb.counts()
	for _, name := range open {
		if strings.HasPrefix(name, streamNamespacePrefix+"/a/") {
			t.Errorf("dropped stream's %s still has a handle open", name)
		}
	}
	if opens == closes {
		t.Fatal("the live stream holds no handle: the test shows nothing")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if opens, closes, open := cb.counts(); opens != closes {
		t.Errorf("after Close: %d backend opens, %d closes, open: %v", opens, closes, open)
	}
}
