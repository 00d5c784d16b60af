package hsq

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/partition"
)

// Maintenance: who installs the steps EndStep seals.
//
// EndStep is one pipeline in every mode — cut, seal, install, commit (see
// Stream.EndStep). The cut and the seal always run on the caller: under the
// engine lock, the in-memory batch and its GK sketch leave the live step and
// become the newest sealed step of the store's published partition.Version,
// which is the stream's one history — so counts and answers agree from the
// cut on. The raw spill then runs outside every engine lock. The install
// (external sort, level-0 partition, cascading κ-way merges) is one
// routine, engine.installOne, run under no engine lock a reader or producer
// needs; until it publishes a step, queries cover that step through its
// frozen stream summary (a core.StreamPiece). The three maintenance modes
// differ only in which goroutine calls it:
//
//   - sync (default): the EndStep caller, before it commits and returns.
//   - async: a DB-wide scheduler, on a bounded worker pool. Per stream,
//     installs are FIFO (step order); across streams, the pool is shared and
//     dispatch is round-robin. Options.MaxPendingSteps bounds how far a
//     stream's installs may lag its seals; EndStep blocks (backpressure)
//     when the bound is hit.
//   - manual: nobody until SyncMaintenance — deterministic, for harnesses
//     like internal/crashtest that need reproducible operation orderings.
//
// One failure rule: a step whose install fails before it is published stays
// sealed — counted, answered from its frozen summary, durable once a commit
// succeeds — and is installed exactly once by a later drain (the next
// EndStep in sync mode, SyncMaintenance in any).

// Maintenance mode names for Options.Maintenance.
const (
	// MaintenanceSync installs each step inside the EndStep that sealed it.
	MaintenanceSync = "sync"
	// MaintenanceAsync leaves installs to the DB-wide background scheduler.
	MaintenanceAsync = "async"
	// MaintenanceManual leaves installs until SyncMaintenance is called.
	MaintenanceManual = "manual"
)

// maintAccum aggregates a stream's maintenance counters; guarded by the
// engine's mu.
type maintAccum struct {
	installs    int
	merges      int
	installTime time.Duration
	running     bool
	bpWaits     int64
	bpTime      time.Duration
	lastErr     string
}

// MaintenanceStats describes one stream's background-maintenance state.
type MaintenanceStats struct {
	// Mode is the stream's maintenance mode: "sync", "async" or "manual".
	Mode string
	// PendingSteps is the number of sealed steps awaiting installation.
	PendingSteps int
	// PendingElements is the element count across pending steps — the
	// stream's merge debt.
	PendingElements int64
	// Running reports an install or merge executing right now.
	Running bool
	// Installs counts installs completed since open, whoever ran them.
	Installs int
	// Merges counts level merges run by those installs.
	Merges int
	// InstallTime is total wall-clock spent in installs.
	InstallTime time.Duration
	// BackpressureWaits counts EndStep calls that blocked on
	// MaxPendingSteps; BackpressureTime is the total time they waited.
	BackpressureWaits int64
	BackpressureTime  time.Duration
	// MaintIO is the stream's maintenance-attributed I/O (sorts, partition
	// writes, merge passes) — always a subset of DiskStats.
	MaintIO IOStats
	// LastError is the most recent maintenance failure ("" when healthy).
	// A non-empty value with PendingSteps > 0 means the stream is stalled;
	// SyncMaintenance retries.
	LastError string
}

// MaintenanceStats returns the stream's current maintenance counters.
func (e *engine) MaintenanceStats() MaintenanceStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	pending := e.store.Pending()
	var pendingN int64
	for _, sb := range pending {
		pendingN += sb.Count
	}
	ms := MaintenanceStats{
		Mode:              e.cfg.Maintenance,
		PendingSteps:      len(pending),
		PendingElements:   pendingN,
		Running:           e.mstats.running,
		Installs:          e.mstats.installs,
		Merges:            e.mstats.merges,
		InstallTime:       e.mstats.installTime,
		BackpressureWaits: e.mstats.bpWaits,
		BackpressureTime:  e.mstats.bpTime,
		MaintIO:           e.dev.MaintStats(),
		LastError:         e.mstats.lastErr,
	}
	if e.maintErr != nil {
		ms.LastError = e.maintErr.Error()
	}
	return ms
}

// wakeLocked signals every goroutine waiting for maintenance progress
// (backpressure waiters, SyncMaintenance). Caller holds e.mu.
func (e *engine) wakeLocked() {
	close(e.wake)
	e.wake = make(chan struct{})
}

// maintFailed wraps a sticky maintenance error for the write path.
func maintFailed(err error) error {
	return fmt.Errorf("hsq: stream maintenance failed (SyncMaintenance retries): %w", err)
}

// installOne installs the oldest sealed step — sort, level-0 partition,
// publish, cascading merges — and recycles its buffers: the one install
// routine, run by the scheduler worker, SyncMaintenance, a
// synchronous EndStep and crash recovery alike. It commits nothing; the
// caller issues the barrier. installed reports that the step was published.
// A failure before that is sticky (maintErr): the step stays sealed, the
// scheduler stops retrying and a backpressured EndStep surfaces the error
// until an inline drain retries. A failure after it (an unfinished merge
// cascade) is recorded but not sticky — the next install repairs it. Caller
// holds maintMu.
func (e *engine) installOne() (bd partition.UpdateBreakdown, installed bool, err error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return bd, false, ErrClosed
	}
	pending := e.store.Pending()
	if len(pending) == 0 {
		e.mu.Unlock()
		return bd, false, nil
	}
	e.mstats.running = true
	e.mu.Unlock()

	t0 := time.Now()
	bd, step, err := e.store.InstallOne()

	e.mu.Lock()
	defer e.mu.Unlock()
	e.mstats.running = false
	if step != 0 {
		// The step published is the head this installer, the only one, read.
		e.recycleLocked(pending[0])
		e.mstats.installs++
		e.mstats.merges += bd.Merges
		e.mstats.installTime += time.Since(t0)
	}
	switch {
	case err != nil:
		e.mstats.lastErr = err.Error()
		if step == 0 {
			e.maintErr = err
		}
	case step != 0:
		// A clean install means the stream is healthy again; stop reporting
		// a stale failure.
		e.mstats.lastErr, e.maintErr = "", nil
	}
	e.wakeLocked()
	return bd, step != 0, err
}

// recycleLocked hands an installed step's grown buffers back to the observe
// path: each replaces its live counterpart if no observe has used that one
// since the cut, and otherwise the sketch waits as the next cut's spare.
// Queries extract a sealed sketch's summary under e.mu, which the caller
// holds, so no reader is left on it.
func (e *engine) recycleLocked(sb *partition.SealedBatch) {
	buf, sketch := e.store.Reusable(sb)
	if len(e.batch) == 0 && cap(buf) > cap(e.batch) {
		e.batch = buf[:0]
	}
	if sketch == nil {
		return // recovered from a spill at open
	}
	sketch.Reset()
	if e.sketch.Count() == 0 {
		e.sketch = sketch
	} else if e.spare == nil {
		e.spare = sketch
	}
}

// runMaintenanceOnce installs at most one sealed step and commits the result
// — one unit of background maintenance. It returns whether a step was
// installed. The maintenance lock spans the commit too, so a Close that
// waited it out is never followed by this store's commit.
func (e *engine) runMaintenanceOnce() (bool, error) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	_, installed, err := e.installOne()
	if !installed {
		return false, err
	}
	if cerr := e.store.Commit(manifestName); cerr != nil && err == nil {
		err = cerr
		e.mu.Lock()
		e.mstats.lastErr = err.Error()
		e.mu.Unlock()
	}
	return true, err
}

// SyncMaintenance is Stream.SyncMaintenance on the pinned engine: it clears
// a sticky maintenance error, then installs and commits sealed steps inline
// until none is left or one fails. An install publishes its step before its
// merges run, so an empty queue is not yet an idle stream: each round takes
// the maintenance lock, which waits out an install and its commit in
// flight.
func (e *engine) SyncMaintenance() error {
	for {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return ErrClosed
		}
		e.maintErr = nil
		e.mu.Unlock()
		if installed, err := e.runMaintenanceOnce(); err != nil || !installed {
			return err
		}
	}
}

// maintPending reports whether the stream has sealed steps awaiting
// installation and is not wedged on a sticky error.
func (e *engine) maintPending() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.closed && e.maintErr == nil && len(e.store.Pending()) > 0
}

// scheduler is the DB-wide background maintenance executor: one bounded
// worker pool shared by every stream of a DB. Streams with pending installs
// queue FIFO; a worker pops a stream, installs exactly one sealed step, and
// re-queues the stream at the tail if it still has work — so a backlogged
// stream cannot starve the others, and per-stream installs stay in step
// order.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*engine
	queued  map[*engine]bool
	running map[*engine]bool
	dirty   map[*engine]bool // enqueued while running; revisit on completion
	workers int
	closed  bool
	wg      sync.WaitGroup
}

// newScheduler starts the worker pool an async configuration asks for; the
// other modes have no background drainer and get nil.
func newScheduler(cfg Options) *scheduler {
	if cfg.Maintenance != MaintenanceAsync {
		return nil
	}
	s := &scheduler{
		queued:  make(map[*engine]bool),
		running: make(map[*engine]bool),
		dirty:   make(map[*engine]bool),
		workers: cfg.MaintenanceWorkers,
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(s.workers)
	for i := 0; i < s.workers; i++ {
		go s.worker()
	}
	return s
}

// enqueue schedules a stream for one install. Idempotent; a stream already
// being serviced is marked dirty and revisited when its current install
// finishes (per-stream installs never run concurrently).
func (s *scheduler) enqueue(e *engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.queued[e] {
		return
	}
	if s.running[e] {
		s.dirty[e] = true
		return
	}
	s.queued[e] = true
	s.queue = append(s.queue, e)
	s.cond.Signal()
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && len(s.queue) == 0 {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		e := s.queue[0]
		s.queue = s.queue[1:]
		delete(s.queued, e)
		s.running[e] = true
		s.mu.Unlock()

		// Errors are recorded on the engine (sticky maintErr stalls the
		// stream until SyncMaintenance); the worker just moves on.
		e.runMaintenanceOnce() //nolint:errcheck // surfaced via engine state

		s.mu.Lock()
		delete(s.running, e)
		again := s.dirty[e]
		delete(s.dirty, e)
		s.mu.Unlock()
		if again || e.maintPending() {
			s.enqueue(e)
		}
	}
}

// close stops the workers after their current installs; queued work is
// abandoned (engines drain inline on Close).
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.queue = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// SchedulerStats describes the DB-wide maintenance scheduler: pool
// occupancy plus the aggregate backlog (merge debt) across streams.
type SchedulerStats struct {
	// Workers is the pool size (0 when the DB runs synchronous or manual
	// maintenance).
	Workers int
	// QueuedStreams and RunningStreams count streams waiting for / holding
	// a worker.
	QueuedStreams  int
	RunningStreams int
	// PendingSteps and MergeDebt aggregate every stream's sealed backlog
	// (steps, elements).
	PendingSteps int
	MergeDebt    int64
	// Installs and Merges total the installs and level merges completed
	// across all hydrated streams since they were hydrated.
	Installs int
	Merges   int
	// MaintIO is the device-wide maintenance-attributed I/O.
	MaintIO IOStats
}

// SchedulerStats returns the DB-wide maintenance picture: scheduler
// occupancy (for async DBs) and aggregate backlog over the hydrated streams.
// Only hydrated streams can hold a backlog — eviction seals a stream only
// after it drains — so cold streams are never touched (no hydration storm
// from a stats poll); DirectoryStats counts them, and the hydrations and
// evictions that move streams between the two.
func (db *DB) SchedulerStats() SchedulerStats {
	var out SchedulerStats
	if db.sched != nil {
		db.sched.mu.Lock()
		out.Workers = db.sched.workers
		out.QueuedStreams = len(db.sched.queue)
		out.RunningStreams = len(db.sched.running)
		db.sched.mu.Unlock()
	}
	db.eachHydrated(func(_ *Stream, e *engine) error { //nolint:errcheck // only a closed DB fails, and it has no backlog
		ms := e.MaintenanceStats()
		out.PendingSteps += ms.PendingSteps
		out.MergeDebt += ms.PendingElements
		out.Installs += ms.Installs
		out.Merges += ms.Merges
		return nil
	})
	out.MaintIO = db.dev.MaintStats()
	return out
}

// WaitIdle blocks until every stream's maintenance backlog is drained and
// committed — a DB-wide quiescence barrier for tests, checkpoints and
// orderly shutdowns. Only hydrated streams can hold a backlog (eviction
// drains before sealing), so cold streams are skipped without hydrating
// them. It returns the first failure encountered (after attempting every
// stream).
func (db *DB) WaitIdle() error {
	return db.eachHydrated(func(_ *Stream, e *engine) error { return e.SyncMaintenance() })
}
