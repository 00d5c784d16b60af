package hsq

import (
	"context"

	"repro/internal/core"
	"repro/internal/query"
)

// Stream is one named quantile stream hosted by a DB. It exposes the full
// single-stream surface — Observe, ObserveSlice, EndStep and their context
// variants, Query with its Quantile(s)/Rank conveniences, MemoryUsage,
// Checkpoint, SyncMaintenance, MaintenanceStats — per stream, while
// storage, the block-cache budget, aggregate I/O accounting and (in async
// mode) the background maintenance worker pool are shared with every other
// stream of the DB.
//
// A Stream is a durable handle, not the engine itself: the engine behind
// it hydrates on first touch and may be evicted (sealed to disk) while the
// stream is idle under Config.MaxHydratedStreams. Every method pins the
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
// Use DB.DropStream to delete a stream rather than calling Destroy
// directly, so the DB's stream directory stays consistent.
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

// Observe adds one element to the stream's current step, hydrating the
// engine if the stream is cold. Like Engine.Observe it never blocks on
// maintenance and reports no error: an element observed against a dropped
// stream or closed DB — or one whose hydration fails — is dropped. Use
// ObserveCtx for error reporting.
func (s *Stream) Observe(v int64) {
	eng, release, err := s.db.acquire(s.ent)
	if err != nil {
		return
	}
	defer release()
	eng.Observe(v)
}

// ObserveSlice adds a batch of elements in one lock acquisition; the slice
// is observed atomically or not at all.
func (s *Stream) ObserveSlice(vs []int64) {
	eng, release, err := s.db.acquire(s.ent)
	if err != nil {
		return
	}
	defer release()
	eng.ObserveSlice(vs)
}

// EndStep seals the current step: the live batch becomes a completed step
// of the historical warehouse (see Engine.EndStep for the sync/async/
// manual semantics).
func (s *Stream) EndStep() (UpdateStats, error) {
	eng, release, err := s.db.acquire(s.ent)
	if err != nil {
		return UpdateStats{}, err
	}
	defer release()
	return eng.EndStep()
}

// Query answers one read request against the stream (see Engine.Query and
// Request) — the one forward of the read path; a cancelled ctx returns
// before the stream is hydrated.
func (s *Stream) Query(ctx context.Context, req Request) (Answer, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	eng, release, err := s.db.acquire(s.ent)
	if err != nil {
		return Answer{}, err
	}
	defer release()
	return eng.Query(ctx, req)
}

// Quantile is Query for one accurate φ-quantile over the full history.
func (s *Stream) Quantile(phi float64) (int64, QueryStats, error) {
	return one(s.Query(context.Background(), Request{Phis: []float64{phi}}))
}

// Quantiles is Query for several accurate φ-quantiles over one snapshot.
func (s *Stream) Quantiles(phis []float64) ([]int64, QueryStats, error) {
	a, err := s.Query(context.Background(), Request{Phis: phis})
	return a.Values, a.Stats, err
}

// Rank is Query for the accurate rank of value v.
func (s *Stream) Rank(v int64) (int64, QueryStats, error) {
	return one(s.Query(context.Background(), Request{Values: []int64{v}}))
}

// onEngine reads one value off the stream's pinned engine, hydrating it if
// the stream is cold; a dropped stream or closed DB reads as the zero value.
func onEngine[T any](s *Stream, get func(*Engine) T) T {
	eng, release, err := s.db.acquire(s.ent)
	if err != nil {
		var zero T
		return zero
	}
	defer release()
	return get(eng)
}

// AvailableWindows lists the trailing-window sizes answerable at full
// accuracy.
func (s *Stream) AvailableWindows() []int { return onEngine(s, (*Engine).AvailableWindows) }

// StreamCount returns the element count of the live (unsealed) batch.
func (s *Stream) StreamCount() int64 { return onEngine(s, (*Engine).StreamCount) }

// HistCount returns the element count across all completed steps.
func (s *Stream) HistCount() int64 { return onEngine(s, (*Engine).HistCount) }

// TotalCount returns HistCount plus the live batch.
func (s *Stream) TotalCount() int64 { return onEngine(s, (*Engine).TotalCount) }

// Steps returns the number of completed steps.
func (s *Stream) Steps() int { return onEngine(s, (*Engine).Steps) }

// PartitionCount returns the number of disk partitions across all levels.
func (s *Stream) PartitionCount() int { return onEngine(s, (*Engine).PartitionCount) }

// Describe returns the stream's level layout for inspection.
func (s *Stream) Describe() []LevelInfo { return onEngine(s, (*Engine).Describe) }

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

// DiskStats returns this stream's I/O counters: the block I/O issued
// through its namespaced view of the shared device. The counters are
// cumulative across hydrate/evict cycles and always sum (with the DB's
// other streams) to DB.DiskStats. Reading them never hydrates the stream.
func (s *Stream) DiskStats() IOStats {
	s.db.mu.Lock()
	view := s.ent.view
	s.db.mu.Unlock()
	if view == nil {
		return IOStats{}
	}
	return fromDisk(view.Stats())
}

// ProbeMemoStats returns the stream's rank-probe memo counters (see
// Config.ProbeMemoEntries). A cold stream reports zeros without hydrating:
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
	return eng.ProbeMemoStats()
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
// installed and committed (see Engine.SyncMaintenance). A cold stream has
// no pending work — sealing drained it — so the call returns immediately
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

// Context variants of the mutating methods: per-stream mirrors of the
// Engine's (see ctx.go for the cancellation semantics of each).

// ObserveCtx is Observe with error reporting: hydration failures, a
// dropped stream and a closed DB all surface instead of dropping the
// element silently.
func (s *Stream) ObserveCtx(ctx context.Context, v int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	eng, release, err := s.db.acquire(s.ent)
	if err != nil {
		return err
	}
	defer release()
	return eng.ObserveCtx(ctx, v)
}

// ObserveSliceCtx is ObserveSlice with error reporting.
func (s *Stream) ObserveSliceCtx(ctx context.Context, vs []int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	eng, release, err := s.db.acquire(s.ent)
	if err != nil {
		return err
	}
	defer release()
	return eng.ObserveSliceCtx(ctx, vs)
}

// EndStepCtx is EndStep with cancellation.
func (s *Stream) EndStepCtx(ctx context.Context) (UpdateStats, error) {
	if err := ctx.Err(); err != nil {
		return UpdateStats{}, err
	}
	eng, release, err := s.db.acquire(s.ent)
	if err != nil {
		return UpdateStats{}, err
	}
	defer release()
	return eng.EndStepCtx(ctx)
}
