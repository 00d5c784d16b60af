package hsq

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/disk"
)

// hydrateGateBackend blocks every Open/ReadMeta touching the gated prefix
// until the gate channel closes, signalling entered once — it parks a
// stream hydration mid-load, outside db.mu, so a test can interleave
// directory mutations with it deterministically.
type hydrateGateBackend struct {
	disk.Backend
	prefix  string
	gate    chan struct{}
	entered sync.Once
	signal  chan struct{}
}

func (g *hydrateGateBackend) wait(name string) {
	if strings.HasPrefix(name, g.prefix) {
		g.entered.Do(func() { close(g.signal) })
		<-g.gate
	}
}

func (g *hydrateGateBackend) Open(name string) (disk.ReadHandle, error) {
	g.wait(name)
	return g.Backend.Open(name)
}

func (g *hydrateGateBackend) ReadMeta(name string) ([]byte, error) {
	g.wait(name)
	return g.Backend.ReadMeta(name)
}

// TestUnregisterDiscardsRacedHydration is the regression test for the
// unregister/hydrate race: Stream's best-effort unregistration (after a
// failed create) can run while another caller's hydration of the same
// entry is in flight outside db.mu. The unregistration tombstones the
// entry before removing it from the directory, so the raced hydration
// must observe dropped, discard its freshly built engine and report
// ErrClosed — never install the engine into an entry no longer in the
// directory, where it would be invisible to eviction and Close while a
// later Stream call doubled the namespace.
func TestUnregisterDiscardsRacedHydration(t *testing.T) {
	inner := disk.NewMemBackend()
	db, err := Open(Options{Epsilon: 0.05, Kappa: 2, Device: inner, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.Stream("n")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 600; i++ {
		st.Observe(i)
	}
	if _, err := st.EndStep(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen over a gated device: the stream is registered but cold, and
	// its first operation's hydration will park on the gate.
	gb := &hydrateGateBackend{
		Backend: inner,
		prefix:  "streams/n/",
		gate:    make(chan struct{}),
		signal:  make(chan struct{}),
	}
	db2, err := Open(Options{Epsilon: 0.05, Kappa: 2, Device: gb, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close() //nolint:errcheck
	cold, ok := db2.Lookup("n")
	if !ok {
		t.Fatal("registered stream missing after reopen")
	}
	qDone := make(chan error, 1)
	go func() {
		_, _, err := cold.Quantile(0.5)
		qDone <- err
	}()
	<-gb.signal // the hydration is parked mid-load, db.mu free

	// Interleave the exact unregistration Stream performs after a failed
	// create: tombstone, drop from the directory, remove the manifest.
	db2.mu.Lock()
	ent := db2.dir["n"]
	if ent == nil {
		db2.mu.Unlock()
		t.Fatal("entry missing from directory")
	}
	db2.unregisterLocked(ent)
	db2.mu.Unlock()

	close(gb.gate)
	if err := <-qDone; !errors.Is(err, ErrClosed) {
		t.Fatalf("query whose entry was unregistered mid-hydration: %v, want ErrClosed", err)
	}
	db2.mu.Lock()
	leaked := ent.eng != nil
	hydrated := len(db2.hot)
	db2.mu.Unlock()
	if leaked {
		t.Error("raced hydration installed an engine into an unregistered entry")
	}
	if hydrated != 0 {
		t.Errorf("hydrated = %d after the discarded hydration, want 0", hydrated)
	}
}
