package hsq

import (
	"context"

	"repro/internal/core"
	"repro/internal/query"
)

// Stream is one named quantile stream hosted by a DB — the package's one
// handle on the paper's engine. It exposes the full single-stream surface —
// Observe, ObserveSlice, EndStep and their context variants, Query with its
// Quantile(s)/Rank conveniences, MemoryUsage, SyncMaintenance,
// MaintenanceStats — per stream, while storage, the block-cache budget,
// aggregate I/O accounting and (in async mode) the background maintenance
// worker pool are shared with every other stream of the DB. It is safe for
// concurrent use.
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
	ent  *streamEntry
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
	return s.ent.eng != nil
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
// buffered batch becomes part of the warehouse and the stream sketch is
// reset. An empty stream is a no-op.
//
// Every maintenance mode runs the same four moves. Cut: the batch, its
// sketch and the step counter move together under the engine lock, so
// elements observed from here on belong to the next step. Seal: the raw
// batch is spilled and queued for installation; from the cut until its
// install is published, queries cover the step through its frozen summary,
// so answers always span the full observed history and neither Observe nor
// Query waits for an install. Install (Algorithm 3, HistUpdate: sort into a
// level-0 partition, κ-way merges as needed) by whoever the mode names —
// this caller before it returns (sync, the default), the scheduler (async;
// EndStep first blocks while MaxPendingSteps seals await installation, and
// EndStepCtx aborts that wait on cancellation), or nobody until
// SyncMaintenance (manual). Commit: one write-data → sync → commit-manifest
// → sync sequence, so when EndStep returns nil the step survives any crash
// — as a partition, or as a spill a reopened DB re-installs — and a
// reopened stream recovers exactly the prefix of time steps whose EndStep
// completed.
//
// On an error the step is still sealed: counted, answered from its frozen
// summary, and durable once any later commit succeeds (the next EndStep's,
// or DB.Checkpoint's). An install that failed is retried by the next
// synchronous EndStep or by SyncMaintenance; no step is installed twice.
func (s *Stream) EndStep() (UpdateStats, error) {
	return s.EndStepCtx(context.Background())
}

// Query answers one read request against the stream (see Request) — the
// package's single read path. ctx is checked at entry, before a cold stream
// is hydrated, and polled between bisection probes, so a cancelled request
// abandons its remaining random disk reads mid-search.
//
// With a deferred-maintenance backlog, sealed steps count toward the stream
// side of the error bound until their installs complete.
func (s *Stream) Query(ctx context.Context, req Request) (Answer, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	eng, err := s.db.acquire(s.ent)
	if err != nil {
		return Answer{}, err
	}
	defer s.db.release(s.ent)
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
	eng, err := s.db.acquire(s.ent)
	if err != nil {
		var zero T
		return zero
	}
	defer s.db.release(s.ent)
	return get(eng)
}

// AvailableWindows lists the trailing-window sizes (in time steps) that
// align with partition boundaries; windowed queries also include the current
// stream (paper §2.4, "Queries Over Windows"). Steps sealed but not yet
// installed by background maintenance are the newest windows.
func (s *Stream) AvailableWindows() []int { return onEngine(s, (*engine).AvailableWindows) }

// StreamCount returns m, the element count of the live (unsealed) batch.
func (s *Stream) StreamCount() int64 { return onEngine(s, (*engine).StreamCount) }

// HistCount returns n, the element count across all completed steps —
// installed partitions plus steps sealed and awaiting installation.
func (s *Stream) HistCount() int64 { return onEngine(s, (*engine).HistCount) }

// TotalCount returns N = n + m.
func (s *Stream) TotalCount() int64 { return onEngine(s, (*engine).TotalCount) }

// Steps returns the number of completed steps.
func (s *Stream) Steps() int { return onEngine(s, (*engine).Steps) }

// PartitionCount returns the number of disk partitions across all levels.
func (s *Stream) PartitionCount() int { return onEngine(s, (*engine).PartitionCount) }

// Describe returns the stream's level layout for inspection.
func (s *Stream) Describe() []LevelInfo {
	return onEngine(s, func(e *engine) []LevelInfo { return e.store.Describe() })
}

// Summary returns the stream's full-history core.ShardSummary — the scatter
// half of the cluster's scatter-gather read — by the path of a local plan
// member (DB.ScopedSummary): an evicted stream answers from its sidecar, so
// a peer's fetch is a metadata read and never a hydration.
func (s *Stream) Summary() (*core.ShardSummary, error) {
	return s.db.entrySummary(s.ent, query.Scope{})
}

// MemoryUsage returns the stream's memory-resident summary footprint. A
// cold (evicted or never-touched) stream reports zero — which is the
// point of eviction — without hydrating.
func (s *Stream) MemoryUsage() MemoryUsage {
	s.db.mu.Lock()
	eng := s.ent.eng
	if eng == nil || s.db.closed {
		s.db.mu.Unlock()
		return MemoryUsage{}
	}
	s.ent.pins++
	s.db.mu.Unlock()
	defer s.db.release(s.ent)
	return eng.MemoryUsage()
}

// DiskStats returns this stream's I/O counters — the one per-stream I/O
// read: the block I/O issued through its namespaced view of the shared
// device. The counters are cumulative across hydrate/evict cycles and always
// sum (with the DB's other streams) to DB.DiskStats. Reading them never
// hydrates the stream; one never hydrated this process reports zero.
func (s *Stream) DiskStats() IOStats {
	s.db.mu.Lock()
	view := s.ent.view
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
	s.db.mu.Lock()
	eng := s.ent.eng
	if eng == nil || s.db.closed {
		s.db.mu.Unlock()
		return ProbeMemoStats{}
	}
	s.ent.pins++
	s.db.mu.Unlock()
	defer s.db.release(s.ent)
	return eng.store.MemoStats()
}

// MaintenanceStats returns the stream's maintenance counters. A cold
// stream reports an empty (fully drained) state without hydrating —
// eviction seals a stream only after its backlog is installed, so cold
// streams genuinely have no pending work.
func (s *Stream) MaintenanceStats() MaintenanceStats {
	s.db.mu.Lock()
	eng := s.ent.eng
	if eng == nil || s.db.closed {
		s.db.mu.Unlock()
		return MaintenanceStats{Mode: s.db.opts.Maintenance}
	}
	s.ent.pins++
	s.db.mu.Unlock()
	defer s.db.release(s.ent)
	return eng.MaintenanceStats()
}

// SyncMaintenance blocks until every sealed step of this stream is
// installed and committed, running the installs inline: the drain of manual
// mode, an accelerator for a backlogged async stream, and the retry of a
// step whose install failed in any mode (it clears the sticky maintenance
// error first and returns the first failure it meets). A cold stream has no
// pending work — sealing drained it — so the call returns immediately
// without hydrating.
func (s *Stream) SyncMaintenance() error {
	s.db.mu.Lock()
	if s.db.closed {
		s.db.mu.Unlock()
		return ErrClosed
	}
	eng := s.ent.eng
	if eng == nil {
		s.db.mu.Unlock()
		return nil
	}
	s.ent.pins++
	s.db.mu.Unlock()
	defer s.db.release(s.ent)
	return eng.SyncMaintenance()
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
	eng, err := s.db.acquire(s.ent)
	if err != nil {
		return err
	}
	defer s.db.release(s.ent)
	return eng.observe(v)
}

// ObserveSliceCtx is ObserveSlice with error reporting; the slice is
// observed atomically or not at all.
func (s *Stream) ObserveSliceCtx(ctx context.Context, vs []int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	eng, err := s.db.acquire(s.ent)
	if err != nil {
		return err
	}
	defer s.db.release(s.ent)
	return eng.observeSlice(vs)
}

// EndStepCtx is EndStep with cancellation. It is checked at entry, and —
// under async maintenance — while blocked on MaxPendingSteps backpressure:
// a cancelled producer stops waiting for the maintenance backlog to drain.
// A started load/merge still runs to completion to keep the warehouse
// consistent.
func (s *Stream) EndStepCtx(ctx context.Context) (UpdateStats, error) {
	if err := ctx.Err(); err != nil {
		return UpdateStats{}, err
	}
	eng, err := s.db.acquire(s.ent)
	if err != nil {
		return UpdateStats{}, err
	}
	defer s.db.release(s.ent)
	return eng.endStep(ctx)
}
