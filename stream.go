package hsq

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/query"
)

// Stream is one named quantile stream hosted by a DB — the package's one
// handle on the paper's engine. It exposes the full single-stream surface —
// Observe, ObserveSlice, EndStep and their context variants, Query with its
// Quantile(s)/Rank conveniences, Status, SyncMaintenance — per stream, while storage, the block-cache budget and
// aggregate I/O accounting are shared with every other stream of the DB. It
// is safe for concurrent use.
//
// A Stream is a durable handle, not the engine itself: the engine behind
// it hydrates on first touch and may be evicted (sealed to disk) while the
// stream is idle under Options.MaxHydratedStreams. Every method pins the
// engine for its duration — hydrating it first if needed — so operations
// never observe an eviction mid-flight, and a handle obtained once stays
// valid across any number of hydrate/evict cycles. Methods on a stream
// that has been dropped (DB.DropStream), or whose DB has been closed,
// fail with ErrClosed.
//
// DiskStats reports only this stream's I/O: the engine runs on a
// namespaced view of the shared device, and per-view counters always sum
// to the DB's DiskStats aggregate (and survive eviction).
//
// DB.DropStream deletes a stream; DB.Checkpoint and DB.Close make every
// stream durable.
type Stream struct {
	name string
	db   *DB

	// The stream is also its own entry in the DB's directory: a lightweight
	// descriptor — a few pointers and counters — that exists for every
	// registered stream; the engine it points at is hydrated lazily on first
	// touch and may be evicted (sealed back to its on-disk manifest) while
	// the stream is idle, so a DB can host millions of registered streams
	// with only the hot set resident.
	//
	// Locking: every field below opMu is guarded by db.mu. Slow state
	// transitions — hydration, eviction, drop — additionally serialize on
	// opMu, the per-name singleflight lock, which is always acquired before
	// db.mu and never while holding it. The fast path (pinning an
	// already-hydrated engine) takes only db.mu, so one stream's cold open
	// can never stall another stream's operations.
	//
	// dropped marks a tombstone. While a tombstoned stream is still present
	// in db.dir, a DropStream is closing its engine, removing its manifest
	// or sweeping its namespace: the name stays claimed — Stream waits the
	// drop out, RegisterStreams rejects it — so no new stream's files can
	// fall to the sweep. The dropper deletes the entry once the sweep
	// succeeds, and lifts the tombstone if the manifest's removal fails; on
	// a sweep failure the tombstone stays (the namespace holds partial
	// debris) until the next Open collects it. A dropped stream no longer in
	// db.dir is just a dead handle: every operation through it reports
	// ErrClosed.
	opMu sync.Mutex
	// view is the stream's namespaced device view, created on first
	// hydration and cached for the stream's lifetime: per-stream I/O counters
	// live on the view, so reusing it across hydrate/evict cycles keeps the
	// counters cumulative and the per-stream sum equal to the device
	// aggregate.
	view    *disk.Manager
	eng     *engine // nil while cold (not hydrated)
	pins    int     // in-flight operations holding eng; eviction skips pinned streams
	seq     uint64  // touch clock value of the last touch: the eviction tie-break
	base    uint64  // DB inflation at the last touch: eviction priority less cost
	dropped bool
	// swept: the namespace holds no orphan. A hydration sweeps unless it is
	// set, and sets it; an evicted engine that may have left one
	// (partition.Store.MayHoldOrphans) clears it. Changes hold opMu too.
	swept bool
	// cold is the sidecar summary a cold stream holds until it hydrates;
	// coldEpoch counts its forgets (coldsummary.go).
	cold      *core.ShardSummary
	coldEpoch uint64
}

// Name returns the stream's name.
func (s *Stream) Name() string { return s.name }

// DB returns the hosting database.
func (s *Stream) DB() *DB { return s.db }

// Hydrated reports whether the stream currently holds a memory-resident
// engine. Monitoring paths use it to skip cold streams instead of
// hydrating the whole directory just to render a status page.
func (s *Stream) Hydrated() bool {
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	return s.eng != nil
}

// Epsilon returns the configured rank-error budget ε (DB-wide; streams
// share one configuration).
func (s *Stream) Epsilon() float64 { return s.db.opts.Epsilon }

// Kappa returns the resolved merge fan-in κ.
func (s *Stream) Kappa() int { return s.db.opts.Kappa }

// Observe adds one element to the stream's current step (StreamUpdate,
// Algorithm 4), hydrating the engine if the stream is cold. It never blocks
// on maintenance and reports no error: an element observed against a dropped
// stream or closed DB — or one whose hydration fails — is dropped. Use
// ObserveCtx for error reporting.
func (s *Stream) Observe(v int64) {
	s.ObserveCtx(context.Background(), v) //nolint:errcheck // dropped by contract, see doc
}

// ObserveSlice adds a batch of elements in one lock acquisition; the slice
// is observed atomically or not at all. Like Observe it reports no error;
// ObserveSliceCtx does.
func (s *Stream) ObserveSlice(vs []int64) {
	s.ObserveSliceCtx(context.Background(), vs) //nolint:errcheck // dropped by contract, see doc
}

// EndStep closes the current time step (Algorithm 4, StreamReset): the
// buffered batch becomes part of the warehouse and the live step starts
// empty. An empty stream is a no-op.
//
// Each EndStep runs the same moves (Algorithm 3, HistUpdate, with the merges
// it makes due). Cut and seal: under the engine lock the batch leaves the
// live step, is sorted in place (a batch a read left sorted is only
// checked) and becomes the sealed step of the store's published history, so
// elements observed from here on belong to the next step, and counters and
// answers agree on this one. Write: outside every engine lock, the sorted step is written once,
// as its level-0 partition; until that is published, queries cover the step
// through a summary gathered from its sorted batch, so answers always span
// the full observed history and neither Observe nor Query waits for the
// write. Merge: a level holding more
// than κ partitions merges its oldest κ+1, one level up, until no level
// does — run by this caller, outside the locks Observe and Query take.
// Commit: one write-data → sync → commit-manifest → sync sequence, so when
// EndStep returns nil the step survives any crash as a partition, and a
// reopened stream recovers exactly the prefix of time steps whose EndStep
// completed.
//
// If the level-0 write fails, the step stays sealed: counted, answered from
// its sorted batch, and written — before anything else — by the next
// EndStep, SyncMaintenance, DB.Checkpoint or Close, whose commit makes it
// durable; no step is written twice. A failed merge returns its error from
// this EndStep, after the commit that makes the step durable, and is
// retried by the same four. The next EndStep settles what a failure left
// before its cut. If the sealed step's write fails again, it returns the
// failure and its live step stays live, for a later EndStep to close; a
// merge that fails again does not stop the cut — the step is written and
// committed, and the merge's failure is returned.
func (s *Stream) EndStep() (UpdateStats, error) {
	return s.EndStepCtx(context.Background())
}

// Query answers one read request against the stream (see Request) — the
// package's single read path. ctx is checked at entry, before a cold stream
// is hydrated, and polled between bisection probes, so a cancelled request
// abandons its remaining random disk reads mid-search.
//
// A sealed step counts toward the stream side of the error bound until its
// level-0 partition is published; merges still due change no answer.
func (s *Stream) Query(ctx context.Context, req Request) (Answer, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	eng, err := s.db.acquire(s)
	if err != nil {
		return Answer{}, err
	}
	defer s.db.release(s)
	return eng.Query(ctx, req)
}

// Quantile is Query for one accurate φ-quantile over the full history
// T = H ∪ R (Algorithm 6 / Theorem 2).
func (s *Stream) Quantile(phi float64) (int64, QueryStats, error) {
	return one(s.Query(context.Background(), Request{Phis: []float64{phi}}))
}

// Quantiles is Query for several accurate φ-quantiles over the full
// history, resolved in one shared sweep; results align with phis.
func (s *Stream) Quantiles(phis []float64) ([]int64, QueryStats, error) {
	a, err := s.Query(context.Background(), Request{Phis: phis})
	return a.Values, a.Stats, err
}

// Rank is Query for the accurate rank of v in T — the number of elements
// ≤ v, the inverse of Quantile.
func (s *Stream) Rank(v int64) (int64, QueryStats, error) {
	return one(s.Query(context.Background(), Request{Values: []int64{v}}))
}

// onEngine reads one value off the stream's pinned engine, hydrating it if
// the stream is cold; a dropped stream or closed DB reads as the zero value.
func onEngine[T any](s *Stream, get func(*engine) T) T {
	eng, err := s.db.acquire(s)
	if err != nil {
		var zero T
		return zero
	}
	defer s.db.release(s)
	return get(eng)
}

// peek runs f on the stream's engine, pinned for the call, only if the
// engine is already hydrated: it never hydrates, and does not count as a
// touch for eviction. A cold stream returns nil without calling f; a closed
// DB or a dropped stream returns the ErrClosed every other method reports.
func (s *Stream) peek(f func(*engine)) error {
	s.db.mu.Lock()
	eng, err := s.eng, s.errLocked()
	if err != nil || eng == nil {
		s.db.mu.Unlock()
		return err
	}
	s.pins++
	s.db.mu.Unlock()
	defer s.db.release(s)
	f(eng)
	return nil
}

// AvailableWindows lists the trailing-window sizes (in time steps) that
// align with partition boundaries; windowed queries also include the current
// stream (paper §2.4, "Queries Over Windows"). A sealed step whose level-0
// write is running or failed is the newest window.
func (s *Stream) AvailableWindows() []int {
	return onEngine(s, func(e *engine) []int { return e.status().Windows })
}

// StreamCount returns m, the element count of the live (unsealed) batch.
func (s *Stream) StreamCount() int64 { return onEngine(s, (*engine).StreamCount) }

// HistCount returns n, the element count across all completed steps —
// installed partitions plus a sealed step whose level-0 write is running or
// failed.
func (s *Stream) HistCount() int64 { return onEngine(s, (*engine).HistCount) }

// TotalCount returns N = n + m.
func (s *Stream) TotalCount() int64 { return onEngine(s, (*engine).TotalCount) }

// Steps returns the number of completed steps.
func (s *Stream) Steps() int { return onEngine(s, (*engine).Steps) }

// PartitionCount returns the number of disk partitions across all levels.
func (s *Stream) PartitionCount() int { return onEngine(s, (*engine).PartitionCount) }

// StreamStatus is a hydrated stream's engine state as one read (see
// Stream.Status).
type StreamStatus struct {
	// Hydrated reports a memory-resident engine; a cold stream's status is
	// otherwise zero.
	Hydrated bool
	// StreamCount (m) and HistCount (n) come from one hold of the engine
	// lock, so N = n + m never straddles a seal.
	StreamCount, HistCount int64
	// Steps and Partitions count completed steps and disk partitions.
	Steps, Partitions int
	// PendingSteps is the write path's backlog in steps, PendingElements in
	// elements: a sealed step whose level-0 write is running or failed, plus
	// the merge debt (on every level, the partitions past κ). Every EndStep
	// that succeeds leaves none.
	PendingSteps    int
	PendingElements int64
	// Running reports the write path settling right now: a level-0 write
	// or its merges executing.
	Running bool
	// Installs and Merges count the level-0 partitions written and the level
	// merges run since the stream was hydrated.
	Installs, Merges int
	// LastError is the most recent write or merge failure ("" when healthy);
	// the next EndStep or SyncMaintenance retries it.
	LastError string
	// The rest is what Describe, AvailableWindows, MemoryUsage and
	// ProbeMemoStats report.
	Levels    []LevelInfo
	Windows   []int
	Memory    MemoryUsage
	ProbeMemo ProbeMemoStats
}

// Status reads the stream's engine state through one peek: it never
// hydrates and is no touch for eviction, so a status poll leaves the
// eviction order alone. The counts, backlog, level layout and windows come
// from one pinned version.
func (s *Stream) Status() StreamStatus {
	var st StreamStatus
	s.peek(func(e *engine) { st = e.status() }) //nolint:errcheck // a dropped stream or closed DB reads as cold
	return st
}

// Describe returns the stream's level layout for inspection.
func (s *Stream) Describe() []LevelInfo {
	return onEngine(s, func(e *engine) []LevelInfo { return e.store.Describe() })
}

// Summary returns the stream's full-history core.ShardSummary — the scatter
// half of the cluster's scatter-gather read — by the path of a local plan
// member (DB.ScopedSummary): an evicted stream answers from its held summary
// or its sidecar, so a peer's fetch is never a hydration.
func (s *Stream) Summary() (*core.ShardSummary, error) {
	return s.scopedSummary(query.Scope{})
}

// MemoryUsage returns the stream's engine footprint without hydrating: zero
// when cold, though a cold stream may hold its sidecar summary for plan
// reads (counted DB-wide, DirectoryStats.ColdSummaryBytes).
func (s *Stream) MemoryUsage() MemoryUsage {
	var mu MemoryUsage
	s.peek(func(e *engine) { mu = e.MemoryUsage() }) //nolint:errcheck // a dropped stream or closed DB holds nothing
	return mu
}

// DiskStats returns this stream's I/O counters — the one per-stream I/O
// read: the block I/O issued through its namespaced view of the shared
// device. The counters are cumulative across hydrate/evict cycles and always
// sum (with the DB's other streams) to DB.DiskStats. Reading them never
// hydrates the stream; one never hydrated this process reports zero.
func (s *Stream) DiskStats() IOStats {
	s.db.mu.Lock()
	view := s.view
	s.db.mu.Unlock()
	if view == nil {
		return IOStats{}
	}
	return view.Stats()
}

// ProbeMemoStats returns the stream's rank-probe memo counters (see
// Options.ProbeMemoEntries). A cold stream reports zeros without hydrating:
// its memos died with the evicted engine's versions.
func (s *Stream) ProbeMemoStats() ProbeMemoStats {
	var ps ProbeMemoStats
	s.peek(func(e *engine) { ps = e.store.MemoStats() }) //nolint:errcheck // a dropped stream or closed DB has no memo
	return ps
}

// SyncMaintenance is the stream's barrier, the one each stream passes in
// DB.Checkpoint: it settles the stream inline — writes a step whose
// level-0 write failed, then runs every merge a failure left due, the retry
// the next EndStep would also run — then commits and refreshes the stream's
// sidecar summary, always, even when settling found nothing to do. It
// returns the first failure it meets. A cold stream has nothing pending —
// sealing settled it — so the call returns at once, without hydrating.
func (s *Stream) SyncMaintenance() error {
	var err error
	if perr := s.peek(func(e *engine) { err = s.db.checkpoint(s.name, e, false) }); perr != nil {
		return perr
	}
	return err
}

// Context variants of the mutating methods (reads take their context
// through Query). Each checks the context before starting — before a cold
// stream is hydrated. Load-side work is checked only at entry: a partition
// load or level merge must run to completion once started, or the warehouse
// would be left with a half-written partition.

// ObserveCtx is Observe with error reporting: the element is dropped (and
// the context error returned) if ctx is already done, and hydration
// failures, a dropped stream and a closed DB all surface instead of dropping
// the element silently.
func (s *Stream) ObserveCtx(ctx context.Context, v int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	eng, err := s.db.acquire(s)
	if err != nil {
		return err
	}
	defer s.db.release(s)
	return eng.observe(v)
}

// ObserveSliceCtx is ObserveSlice with error reporting; the slice is
// observed atomically or not at all.
func (s *Stream) ObserveSliceCtx(ctx context.Context, vs []int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	eng, err := s.db.acquire(s)
	if err != nil {
		return err
	}
	defer s.db.release(s)
	return eng.observeSlice(vs)
}

// EndStepCtx is EndStep with cancellation, checked at entry only: a started
// write or merge runs to completion to keep the warehouse consistent.
func (s *Stream) EndStepCtx(ctx context.Context) (UpdateStats, error) {
	if err := ctx.Err(); err != nil {
		return UpdateStats{}, err
	}
	eng, err := s.db.acquire(s)
	if err != nil {
		return UpdateStats{}, err
	}
	defer s.db.release(s)
	return eng.endStep()
}
