package hsq

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/partition"
)

// Maintenance: who runs the merges the steps EndStep writes make due.
//
// EndStep is one pipeline in every mode — cut, seal, write, commit (see
// Stream.EndStep). The cut and the seal run on the caller under the engine
// lock: the in-memory batch and its GK sketch leave the live step and become
// the sealed step of the store's published partition.Version, which is the
// stream's one history — so counts and answers agree from the cut on. The
// caller then writes the step, outside every engine lock a reader or
// producer needs, as its level-0 partition (engine.installOne: one sort, one
// sequential write); until that publishes, queries cover the step through
// its frozen stream summary (a core.StreamPiece). Each step is written once,
// in every mode. What is left is Algorithm 3's merges: a level holding more
// than κ partitions merges its oldest κ+1 into one a level up
// (engine.merge). The three maintenance modes differ only in which goroutine
// runs them:
//
//   - sync (default): the EndStep caller, before it commits and returns.
//   - async: a DB-wide scheduler, on a bounded worker pool. Per stream,
//     merges run one at a time, lowest level first; across streams, the
//     pool is shared and dispatch is round-robin. A merge splices its output
//     over the partitions it read while EndStep appends beside it, so an
//     EndStep never waits for a merge that is running — unless the stream's
//     pending steps reach Options.MaxPendingSteps, when EndStep blocks
//     (backpressure).
//   - manual: nobody until SyncMaintenance — deterministic, for harnesses
//     like internal/crashtest that need reproducible operation orderings.
//
// However far the merges lag, they leave the layout sync mode would.
//
// One failure rule: a step whose level-0 write fails stays sealed — counted,
// answered from its frozen summary — and is written exactly once, before
// anything else, by the next EndStep, SyncMaintenance, Checkpoint or Close;
// it is durable once that caller's commit returns nil. A failed merge keeps
// its inputs live and is retried by the next merge of its level.

// Maintenance mode names for Options.Maintenance.
const (
	// MaintenanceSync runs each step's merges inside the EndStep that wrote
	// it.
	MaintenanceSync = "sync"
	// MaintenanceAsync leaves merges to the DB-wide background scheduler.
	MaintenanceAsync = "async"
	// MaintenanceManual leaves merges until SyncMaintenance is called.
	MaintenanceManual = "manual"
)

// maintAccum aggregates a stream's maintenance counters; guarded by the
// engine's mu.
type maintAccum struct {
	installs    int
	merges      int
	installTime time.Duration
	running     int // level-0 writes and merges in flight
	bpWaits     int64
	bpTime      time.Duration
	lastErr     string
}

// MaintenanceStats describes one stream's maintenance state.
type MaintenanceStats struct {
	// Mode is the stream's maintenance mode: "sync", "async" or "manual".
	Mode string
	// PendingSteps is the number of steps whose deferred work has not run
	// yet: the merge debt (on every level, the partitions past κ) plus a
	// step whose level-0 write is running or failed.
	PendingSteps int
	// PendingElements is the element count across those steps.
	PendingElements int64
	// Running reports a level-0 write or a merge executing right now.
	Running bool
	// Installs counts level-0 partitions written since open, whoever wrote
	// them.
	Installs int
	// Merges counts level merges run since open.
	Merges int
	// InstallTime is total wall-clock spent in level-0 writes and merges.
	InstallTime time.Duration
	// BackpressureWaits counts EndStep calls that blocked on
	// MaxPendingSteps; BackpressureTime is the total time they waited.
	BackpressureWaits int64
	BackpressureTime  time.Duration
	// MaintIO is the stream's maintenance-attributed I/O (sorts, partition
	// writes, merge passes) — always a subset of DiskStats.
	MaintIO IOStats
	// LastError is the most recent write or merge failure ("" when
	// healthy). A failed merge stalls the scheduler on the stream until a
	// merge succeeds; SyncMaintenance retries.
	LastError string
}

// MaintenanceStats returns the stream's current maintenance counters.
func (e *engine) MaintenanceStats() MaintenanceStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	steps, elements := e.store.Backlog()
	ms := MaintenanceStats{
		Mode:              e.cfg.Maintenance,
		PendingSteps:      steps,
		PendingElements:   elements,
		Running:           e.mstats.running > 0,
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

// wakeLocked signals every goroutine waiting for maintenance progress (a
// backpressured EndStep). Caller holds e.mu.
func (e *engine) wakeLocked() {
	close(e.wake)
	e.wake = make(chan struct{})
}

// maintFailed wraps a sticky maintenance error for the write path.
func maintFailed(err error) error {
	return fmt.Errorf("hsq: stream maintenance failed (SyncMaintenance retries): %w", err)
}

// installOne writes the sealed step as its level-0 partition and publishes
// it — the one level-0 write, run by EndStep for its own step and, for a
// step whose write failed, by the next EndStep, SyncMaintenance, Checkpoint
// or Close — and recycles the step's buffers. It returns the step's update
// breakdown, zero when nothing was sealed. A failure leaves the step sealed
// and shows as LastError until a write succeeds; it commits nothing. Caller
// holds loadMu.
func (e *engine) installOne() (UpdateStats, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return UpdateStats{}, ErrClosed
	}
	pending := e.store.Pending()
	if len(pending) == 0 {
		e.mu.Unlock()
		return UpdateStats{}, nil
	}
	e.mstats.running++
	e.mu.Unlock()

	t0 := time.Now()
	bd, step, err := e.store.InstallOne()

	e.mu.Lock()
	defer e.mu.Unlock()
	e.mstats.running--
	if step != 0 {
		// The step published is the head this installer, the only one, read.
		e.recycleLocked(pending[0])
		e.mstats.installs++
		e.mstats.installTime += time.Since(t0)
		e.mstats.lastErr = ""
	}
	if err != nil {
		e.mstats.lastErr = err.Error()
	}
	e.wakeLocked()
	return bd, err
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
	sketch.Reset()
	if e.sketch.Count() == 0 {
		e.sketch = sketch
	} else if e.spare == nil {
		e.spare = sketch
	}
}

// merge runs the due merges — all of them, or at most one — keeping the
// counters, and reports how many ran with their time and I/O. A failure is
// sticky (maintErr): the scheduler stops retrying it and a backpressured
// EndStep reports it, until a merge succeeds (SyncMaintenance, or the
// scheduler run the next EndStep asks for). It commits nothing. Caller
// holds maintMu.
func (e *engine) merge(all bool) (n int, d time.Duration, io IOStats, err error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, 0, io, ErrClosed
	}
	e.mstats.running++
	e.mu.Unlock()

	t0 := time.Now()
	for merged := true; merged && (all || n == 0); {
		var mio IOStats
		merged, mio, err = e.store.Merge()
		io = io.Add(mio)
		if err != nil {
			break
		}
		if merged {
			n++
		}
	}
	d = time.Since(t0)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.mstats.running--
	e.mstats.merges += n
	e.mstats.installTime += d
	switch {
	case err != nil:
		e.mstats.lastErr, e.maintErr = err.Error(), err
	case n > 0:
		e.mstats.lastErr, e.maintErr = "", nil
	}
	e.wakeLocked()
	return n, d, io, err
}

// runMaintenanceOnce runs one due merge and commits it — one unit of
// background maintenance. It reports whether a merge ran. The maintenance
// lock spans the commit too, so a Close that waited it out is never
// followed by this store's commit.
func (e *engine) runMaintenanceOnce() (bool, error) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	n, _, _, err := e.merge(false)
	if n == 0 {
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

// drain clears a sticky merge failure, writes a step whose level-0 write
// failed, then runs every due merge — the inline work of SyncMaintenance
// and Close. It reports whether it changed the published layout, and
// commits nothing. Caller holds loadMu.
func (e *engine) drain() (bool, error) {
	e.mu.Lock()
	e.maintErr = nil
	e.mu.Unlock()
	us, err := e.installOne()
	if err != nil {
		return false, err
	}
	// maintMu waits out a background merge and its commit in flight.
	e.maintMu.Lock()
	n, _, _, err := e.merge(true)
	e.maintMu.Unlock()
	return us.BatchSize > 0 || n > 0, err
}

// SyncMaintenance is Stream.SyncMaintenance on the pinned engine: it runs
// drain inline and commits what it changed, returning the first failure.
func (e *engine) SyncMaintenance() error {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	changed, err := e.drain()
	if changed {
		if cerr := e.store.Commit(manifestName); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// maintPending reports whether a merge is due on the stream and it is not
// wedged on a sticky failure.
func (e *engine) maintPending() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	steps, _ := e.store.Backlog()
	return !e.closed && e.maintErr == nil && steps > len(e.store.Pending())
}

// scheduler is the DB-wide background maintenance executor: one bounded
// worker pool shared by every stream of a DB. Streams with a merge due
// queue FIFO; a worker pops a stream, runs exactly one merge, and re-queues
// the stream at the tail if another is due — so a backlogged stream cannot
// starve the others, and a stream's merges never run concurrently.
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

// enqueue schedules a stream for one merge. Idempotent; a stream already
// being serviced is marked dirty and revisited when its current merge
// finishes (per-stream merges never run concurrently).
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

// close stops the workers after their current merges; queued work is
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
	// PendingSteps and MergeDebt aggregate every stream's pending steps and
	// their elements (MaintenanceStats.PendingSteps, PendingElements).
	PendingSteps int
	MergeDebt    int64
	// Installs and Merges total the level-0 writes and level merges
	// completed across all hydrated streams since they were hydrated.
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
