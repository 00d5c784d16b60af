package hsq_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/disk"
	"repro/internal/partition"
)

// sweepBackend counts List calls by prefix and, for the one armed name,
// fails every write, whose Abort then cannot remove the file.
type sweepBackend struct {
	disk.Backend
	mu    sync.Mutex
	lists map[string]int
	armed string
}

var errWriteRefused = errors.New("injected write failure")

func (b *sweepBackend) listed(prefix string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lists[prefix]
}

func (b *sweepBackend) arm(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.armed = name
}

func (b *sweepBackend) isArmed(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.armed != "" && name == b.armed
}

func (b *sweepBackend) List(prefix string) ([]string, error) {
	b.mu.Lock()
	b.lists[prefix]++
	b.mu.Unlock()
	return b.Backend.List(prefix)
}

func (b *sweepBackend) Create(name string) (disk.WriteHandle, error) {
	h, err := b.Backend.Create(name)
	if err != nil || !b.isArmed(name) {
		return h, err
	}
	return stuckHandle{h}, nil
}

// stuckHandle fails every write, and its Abort cannot remove the file.
type stuckHandle struct{ disk.WriteHandle }

func (stuckHandle) Write([]byte) (int, error) { return 0, errWriteRefused }
func (h stuckHandle) Abort()                  { h.WriteHandle.Close() } //nolint:errcheck // the file stays

// TestSweepPolicy pins when a hydration sweeps its stream's namespace for
// orphans: on the stream's first hydration after Open — which removes crash
// debris, here a planted partition the manifest does not name — and on the
// hydration after an evicted engine failed a write, never otherwise. Each
// sweep is one List of the namespace. A failed level-0 write leaves its
// file, which the retry at eviction rewrites under the same name; a failed
// merge's output has an id no retry reuses, so its file stays an orphan
// until the stream's next hydration removes it.
func TestSweepPolicy(t *testing.T) {
	mem := disk.NewMemBackend()
	opts := hsq.Options{Epsilon: 0.05, Kappa: 2, BlockSize: 512, MaxHydratedStreams: 1}
	opts.Device = mem
	db, err := hsq.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	step := func(st *hsq.Stream, base int64) error {
		for v := base; v < base+200; v++ {
			st.Observe(v)
		}
		_, err := st.EndStep()
		return err
	}
	a, err := db.Stream("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := step(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash debris: a partition written but never committed.
	w, err := mem.Create("streams/a/part-000099.dat")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("x")) //nolint:errcheck
	w.Close()            //nolint:errcheck

	sb := &sweepBackend{Backend: mem, lists: map[string]int{}}
	opts.Device = sb
	db, err = hsq.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	const nsA, nsB = "streams/a/", "streams/b/"
	if a, err = db.Stream("a"); err != nil {
		t.Fatal(err)
	}
	if n := sb.listed(nsA); n != 1 {
		t.Fatalf("first hydration of a listed its namespace %d times, want 1", n)
	}
	if mem.Exists(nsA + "part-000099.dat") {
		t.Error("the first hydration after Open left the planted orphan")
	}
	b, err := db.Stream("b")
	if err != nil {
		t.Fatal(err)
	}
	// b evicts a and a evicts b: each later hydration lists nothing.
	hydrations := db.DirectoryStats().Hydrations
	for i := 0; i < 3; i++ {
		if err := step(a, 1000*int64(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := step(b, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.DirectoryStats().Hydrations - hydrations; got != 6 {
		t.Fatalf("%d hydrations over three a/b rounds under a budget of one, want 6", got)
	}
	if na, nb := sb.listed(nsA), sb.listed(nsB); na != 1 || nb != 1 {
		t.Fatalf("after the rounds a listed %d times and b %d, want 1 each (the first hydrations)", na, nb)
	}

	// A failed level-0 write leaves its file; the retry at a's eviction
	// rewrites it, and a's next hydration sweeps once.
	next := func(k int64) string {
		t.Helper()
		data, err := mem.ReadMeta(nsA + "MANIFEST.json")
		if err != nil {
			t.Fatal(err)
		}
		m, err := partition.ParseManifest(data)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%spart-%06d.dat", nsA, m.NextID+k)
	}
	fail := func(name string, base int64) {
		t.Helper()
		sb.arm(name)
		if err := step(a, base); !errors.Is(err, errWriteRefused) {
			t.Fatalf("EndStep under a refused write of %s: %v, want the injected failure", name, err)
		}
		sb.arm("")
		if !mem.Exists(name) {
			t.Fatalf("the failed write's Abort removed %s", name)
		}
	}
	evictAndRehydrate := func() int {
		t.Helper()
		listed := sb.listed(nsA)
		if _, _, err := b.Quantile(0.5); err != nil { // evicts a, whose checkpoint retries
			t.Fatal(err)
		}
		if _, _, err := a.Quantile(0.5); err != nil {
			t.Fatal(err)
		}
		return sb.listed(nsA) - listed
	}
	if err := step(a, 9000); err != nil { // a hydrated, b evicted
		t.Fatal(err)
	}
	fail(next(0), 10000)
	if n := evictAndRehydrate(); n != 1 {
		t.Fatalf("the hydration after a failed level-0 write listed %d times, want 1", n)
	}
	if n := evictAndRehydrate(); n != 0 {
		t.Fatalf("a clean rehydration listed %d times, want 0", n)
	}

	// A failed merge: its output's id is never reused, so its file is an
	// orphan until a's next hydration removes it.
	for base := int64(20000); a.Describe()[0].Partitions != 2; base += 1000 {
		if err := step(a, base); err != nil {
			t.Fatal(err)
		}
	}
	merged := next(1) // the next step takes next(0); the merge it makes due, next(1)
	fail(merged, 30000)
	listed := sb.listed(nsA)
	if _, _, err := b.Quantile(0.5); err != nil {
		t.Fatal(err)
	}
	if !mem.Exists(merged) {
		t.Fatalf("%s is gone before a's next hydration", merged)
	}
	if _, _, err := a.Quantile(0.5); err != nil {
		t.Fatal(err)
	}
	if n := sb.listed(nsA) - listed; n != 1 || mem.Exists(merged) {
		t.Fatalf("the hydration after a failed merge listed %d times and left %s: %v, want 1 and gone", n, merged, mem.Exists(merged))
	}
	if got, want := a.HistCount(), int64(200*a.Steps()); got != want {
		t.Errorf("HistCount = %d, want %d", got, want)
	}
}
