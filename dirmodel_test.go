package hsq_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	hsq "repro"
	"repro/internal/disk"
)

// modelStream is the reference model's state for one registered stream:
// elements covered by completed steps, elements observed since, and the
// number of completed steps.
type modelStream struct {
	sealed, live int64
	steps        int
}

// staleHandle is a Stream handle whose stream was dropped or whose DB was
// closed; every check re-reads it through the surface that never hydrates.
type staleHandle struct {
	st *hsq.Stream
	db *hsq.DB
}

// TestDirectoryModel drives a seeded sequence of directory operations over
// four names — Stream, RegisterStreams, Lookup, ObserveSlice, EndStep,
// DropStream, SyncMaintenance, Checkpoint, a hydrating read, and
// Close-and-reopen on the same heap device — under a hydration budget of
// two, and after every operation compares the DB with a reference model:
// the registered names, each stream's element count and steps, and the
// hydrated count against the budget (streams holding a live buffer cannot be
// evicted, so the bound is the larger of the two). Every stream is also read
// through the calls that never hydrate — MemoryUsage, ProbeMemoStats,
// Status, SyncMaintenance — in each state it can be in: a cold
// stream answers empty and stays cold; a handle of a dropped stream, or of a
// closed DB, answers empty and SyncMaintenance reports ErrClosed, as every
// other method on it does. HSQ_DIR_SEED replays a seed; a failure prints it
// and the trailing operations.
func TestDirectoryModel(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("HSQ_DIR_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad HSQ_DIR_SEED %q: %v", s, err)
		}
		seed = v
	}
	const budget = 2
	names := []string{"a", "b", "c", "d"}
	inner := disk.NewMemBackend()
	open := func() *hsq.DB {
		db, err := hsq.Open(hsq.Options{
			Epsilon: 0.05, Kappa: 2, Device: inner, BlockSize: 512,
			MaxHydratedStreams: budget,
		})
		if err != nil {
			t.Fatalf("seed=%d: open: %v", seed, err)
		}
		return db
	}
	db := open()
	defer func() { db.Close() }() //nolint:errcheck // heap device

	rng := rand.New(rand.NewSource(seed))
	model := map[string]*modelStream{}
	var stale []staleHandle
	var log opLog
	op := 0
	var coldReads, droppedReads, closedReads, reopens int // how much of each state the run reached
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed=%d op=%d: %s\n(replay with HSQ_DIR_SEED; trailing ops:)\n%s",
			seed, op, fmt.Sprintf(format, args...), log.String())
	}
	registered := func() []string {
		out := make([]string, 0, len(model))
		for name := range model {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	// handle returns a registered stream's handle through Lookup.
	handle := func(name string) *hsq.Stream {
		t.Helper()
		st, ok := db.Lookup(name)
		if !ok {
			fail("Lookup(%q) missed a registered stream", name)
		}
		return st
	}

	// checkStale holds a dropped stream's or a closed DB's handle to the
	// empty answers and the error every other method gives.
	checkStale := func(h staleHandle) {
		t.Helper()
		name := h.st.Name()
		if h.st.Hydrated() {
			fail("stale handle %q reports a hydrated engine", name)
		}
		if mu := h.st.MemoryUsage(); mu != (hsq.MemoryUsage{}) {
			fail("stale handle %q: MemoryUsage = %+v, want zero", name, mu)
		}
		if pm := h.st.ProbeMemoStats(); pm != (hsq.ProbeMemoStats{}) {
			fail("stale handle %q: ProbeMemoStats = %+v, want zero", name, pm)
		}
		if ms := h.st.Status(); !reflect.DeepEqual(ms, hsq.StreamStatus{}) {
			fail("stale handle %q: Status = %+v, want drained", name, ms)
		}
		err := h.st.SyncMaintenance()
		if h.db == db {
			droppedReads++
			want := fmt.Sprintf("hsq: stream %q dropped: %v", name, hsq.ErrClosed)
			if !errors.Is(err, hsq.ErrClosed) || err.Error() != want {
				fail("dropped handle %q: SyncMaintenance = %v, want %q", name, err, want)
			}
			if _, err := h.st.Query(context.Background(), hsq.Request{Phis: []float64{0.5}}); err == nil || err.Error() != want {
				fail("dropped handle %q: Query = %v, want %q", name, err, want)
			}
		} else if closedReads++; !errors.Is(err, hsq.ErrClosed) {
			fail("handle %q of a closed DB: SyncMaintenance = %v, want ErrClosed", name, err)
		}
	}

	check := func() {
		t.Helper()
		want := registered()
		if got := db.Streams(); !slices.Equal(got, want) {
			fail("Streams() = %v, model registers %v", got, want)
		}
		ds := db.DirectoryStats()
		if ds.Registered != len(want) {
			fail("DirectoryStats.Registered = %d, model registers %d", ds.Registered, len(want))
		}
		live := 0
		for _, m := range model {
			if m.live > 0 {
				live++
			}
		}
		if ds.Hydrated > max(budget, live) {
			fail("%d streams hydrated with nothing pinned: budget %d, %d with a live buffer", ds.Hydrated, budget, live)
		}
		for _, name := range want {
			m, st := model[name], handle(name)
			cold := !st.Hydrated()
			if cold && m.live > 0 {
				fail("stream %q is cold with %d live elements", name, m.live)
			}
			mu, pm, ms := st.MemoryUsage(), st.ProbeMemoStats(), st.Status()
			if err := st.SyncMaintenance(); err != nil {
				fail("stream %q: SyncMaintenance: %v", name, err)
			}
			if ms.PendingSteps != 0 {
				fail("stream %q: Status = %+v, want a drained stream", name, ms)
			}
			if cold && (mu != (hsq.MemoryUsage{}) || pm != (hsq.ProbeMemoStats{}) || !reflect.DeepEqual(ms, hsq.StreamStatus{})) {
				fail("cold stream %q: MemoryUsage %+v, ProbeMemoStats %+v, Status %+v, want zero", name, mu, pm, ms)
			}
			if cold && st.Hydrated() {
				fail("reading cold stream %q without a query hydrated it", name)
			}
			if cold {
				coldReads++
			}
		}
		if h := db.DirectoryStats().Hydrations; h != ds.Hydrations {
			fail("the non-hydrating reads hydrated %d streams", h-ds.Hydrations)
		}
		// Counts and steps through the summary path: a cold stream answers
		// from its sidecar, a hydrated one from its engine, live buffer
		// included.
		for _, name := range want {
			m := model[name]
			sum, err := handle(name).Summary()
			if err != nil {
				fail("stream %q: Summary: %v", name, err)
			}
			steps := 0
			if len(sum.Parts) > 0 {
				steps = sum.Parts[len(sum.Parts)-1].EndStep
			}
			if sum.N != m.sealed+m.live || steps != m.steps {
				fail("stream %q: Summary has N=%d over %d steps, model %d+%d over %d", name, sum.N, steps, m.sealed, m.live, m.steps)
			}
		}
		for _, h := range stale {
			checkStale(h)
		}
	}

	for op = 0; op < 240; op++ {
		name := names[rng.Intn(len(names))]
		m := model[name]
		switch k := rng.Intn(100); {
		case k < 12: // Stream: get or create, hydrating
			st, err := db.Stream(name)
			if err != nil {
				fail("Stream(%q): %v", name, err)
			}
			if st.Name() != name {
				fail("Stream(%q) returned %q", name, st.Name())
			}
			if m == nil {
				model[name] = &modelStream{}
			}
			log.add("Stream(%q)", name)
		case k < 20: // RegisterStreams: a batch, some perhaps registered
			batch := []string{name}
			for i := rng.Intn(3); i > 0; i-- {
				batch = append(batch, names[rng.Intn(len(names))])
			}
			if err := db.RegisterStreams(batch...); err != nil {
				fail("RegisterStreams(%v): %v", batch, err)
			}
			for _, n := range batch {
				if model[n] == nil {
					model[n] = &modelStream{}
				}
			}
			log.add("RegisterStreams(%v)", batch)
		case k < 26: // Lookup: found exactly when registered
			st, ok := db.Lookup(name)
			if ok != (m != nil) || (ok && st.Name() != name) {
				fail("Lookup(%q) = %v, model registered = %v", name, ok, m != nil)
			}
			log.add("Lookup(%q) = %v", name, ok)
		case k < 48: // ObserveSlice
			if m == nil {
				continue
			}
			vals := make([]int64, 1+rng.Intn(40))
			for i := range vals {
				vals[i] = rng.Int63n(1 << 16)
			}
			if err := handle(name).ObserveSliceCtx(context.Background(), vals); err != nil {
				fail("ObserveSlice(%q): %v", name, err)
			}
			m.live += int64(len(vals))
			log.add("ObserveSlice(%q, %d)", name, len(vals))
		case k < 62: // EndStep: an empty step is a no-op
			if m == nil {
				continue
			}
			if _, err := handle(name).EndStep(); err != nil {
				fail("EndStep(%q): %v", name, err)
			}
			if m.live > 0 {
				m.sealed, m.live, m.steps = m.sealed+m.live, 0, m.steps+1
			}
			log.add("EndStep(%q)", name)
		case k < 69: // DropStream
			var st *hsq.Stream
			if m != nil {
				st = handle(name)
			}
			err := db.DropStream(name)
			if m == nil {
				if !errors.Is(err, hsq.ErrUnknownStream) {
					fail("DropStream(%q) of an unregistered stream: %v, want ErrUnknownStream", name, err)
				}
			} else {
				if err != nil {
					fail("DropStream(%q): %v", name, err)
				}
				delete(model, name)
				stale = append(stale, staleHandle{st, db})
				if len(stale) > 8 {
					stale = stale[1:]
				}
			}
			log.add("DropStream(%q)", name)
		case k < 75: // SyncMaintenance through a handle
			if m == nil {
				continue
			}
			if err := handle(name).SyncMaintenance(); err != nil {
				fail("SyncMaintenance(%q): %v", name, err)
			}
			log.add("SyncMaintenance(%q)", name)
		case k < 80:
			if err := db.Checkpoint(); err != nil {
				fail("Checkpoint: %v", err)
			}
			log.add("Checkpoint")
		case k < 85:
			if err := db.Checkpoint(); err != nil {
				fail("Checkpoint: %v", err)
			}
			log.add("Checkpoint")
		case k < 95: // a hydrating read of the counts
			if m == nil {
				continue
			}
			st := handle(name)
			if h, n, s := st.HistCount(), st.TotalCount(), st.Steps(); h != m.sealed || n != m.sealed+m.live || s != m.steps {
				fail("stream %q: HistCount %d, TotalCount %d, Steps %d; model %d+%d over %d", name, h, n, s, m.sealed, m.live, m.steps)
			}
			log.add("read(%q)", name)
		default: // Close and reopen: the live buffers are volatile by contract
			stale = stale[:0]
			for _, n := range registered() {
				stale = append(stale, staleHandle{handle(n), db})
			}
			if err := db.Close(); err != nil {
				fail("Close: %v", err)
			}
			for _, n := range registered() {
				if _, ok := db.Lookup(n); ok {
					fail("Lookup(%q) on a closed DB found the stream", n)
				}
			}
			db = open()
			for _, s := range model {
				s.live = 0
			}
			reopens++
			log.add("Close+reopen")
		}
		check()
	}
	if err := db.Close(); err != nil {
		t.Fatalf("seed=%d: close: %v", seed, err)
	}
	t.Logf("seed=%d: %d reopens; non-hydrating reads of %d cold streams, %d dropped handles, %d closed-DB handles",
		seed, reopens, coldReads, droppedReads, closedReads)
	if reopens == 0 || coldReads == 0 || droppedReads == 0 || closedReads == 0 {
		t.Fatalf("seed=%d: a directory state was never reached; the sequence is too short", seed)
	}
}
