package hsq

import (
	"time"

	"repro/internal/partition"
)

// Maintenance: the level merges the steps EndStep writes make due.
//
// EndStep is one pipeline — cut, seal, write, merge, commit (see
// Stream.EndStep), all of it under the engine's write-path lock. The cut and
// the seal run under the engine lock too: the in-memory batch and its GK
// sketch leave the live step and become the sealed step of the store's
// published partition.Version, which is the stream's one history — so
// counts and answers agree from the cut on. The caller then writes the step,
// outside every engine lock a reader or producer needs, as its level-0
// partition (engine.installOne: one sort, one sequential write); until that
// publishes, queries cover the step through its frozen stream summary (a
// core.StreamPiece). Each step is written once. Then Algorithm 3's merges:
// a level holding more than κ partitions merges its oldest κ+1 into one a
// level up (engine.merge), again outside the locks readers and producers
// take, and the EndStep commits.
//
// One failure rule: a step whose level-0 write fails stays sealed — counted,
// answered from its frozen summary — and is written exactly once, before
// anything else, by the next EndStep, SyncMaintenance, Checkpoint or Close;
// it is durable once that caller's commit returns nil. A failed merge keeps
// its inputs live, returns from the EndStep that ran it, and is retried by
// the next EndStep, SyncMaintenance or Close.

// MaintenanceSync is the one value Options.Maintenance accepts besides "".
const MaintenanceSync = "sync"

// maintAccum aggregates a stream's maintenance counters; guarded by the
// engine's mu.
type maintAccum struct {
	installs    int
	merges      int
	installTime time.Duration
	running     int // level-0 writes and merges in flight
	lastErr     string
}

// MaintenanceStats describes one stream's maintenance state.
type MaintenanceStats struct {
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
	// MaintIO is the stream's maintenance-attributed I/O (sorts, partition
	// writes, merge passes) — always a subset of DiskStats.
	MaintIO IOStats
	// LastError is the most recent write or merge failure ("" when
	// healthy); the next EndStep, SyncMaintenance or Close retries it.
	LastError string
}

// MaintenanceStats returns the stream's current maintenance counters.
func (e *engine) MaintenanceStats() MaintenanceStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	steps, elements := e.store.Backlog()
	return MaintenanceStats{
		PendingSteps:    steps,
		PendingElements: elements,
		Running:         e.mstats.running > 0,
		Installs:        e.mstats.installs,
		Merges:          e.mstats.merges,
		InstallTime:     e.mstats.installTime,
		MaintIO:         e.dev.MaintStats(),
		LastError:       e.mstats.lastErr,
	}
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
	sb := e.store.Sealed()
	if sb == nil {
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
		e.recycleLocked(sb)
		e.mstats.installs++
		e.mstats.installTime += time.Since(t0)
		e.mstats.lastErr = ""
	}
	if err != nil {
		e.mstats.lastErr = err.Error()
	}
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

// merge runs every due merge, keeping the counters, and reports how many
// ran with their time and I/O. A failure keeps the level's inputs live and
// shows as LastError until a merge succeeds; the next EndStep,
// SyncMaintenance or Close retries it. It commits nothing. Caller holds
// loadMu.
func (e *engine) merge() (n int, d time.Duration, io IOStats, err error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, 0, io, ErrClosed
	}
	e.mstats.running++
	e.mu.Unlock()

	t0 := time.Now()
	for merged := true; merged; {
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
		e.mstats.lastErr = err.Error()
	case n > 0:
		e.mstats.lastErr = ""
	}
	return n, d, io, err
}

// drain writes a step whose level-0 write failed, then runs every due merge
// — the inline work of SyncMaintenance and Close. It reports whether it
// changed the published layout, and commits nothing. Caller holds loadMu.
func (e *engine) drain() (bool, error) {
	us, err := e.installOne()
	if err != nil {
		return false, err
	}
	n, _, _, err := e.merge()
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

// SchedulerStats describes the DB's maintenance picture: the aggregate
// backlog (merge debt) across streams and the work done so far.
type SchedulerStats struct {
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

// SchedulerStats returns the DB-wide maintenance picture: the aggregate
// backlog over the hydrated streams. Only hydrated streams can hold a
// backlog — eviction seals a stream only after it drains — so cold streams
// are never touched (no hydration storm from a stats poll); DirectoryStats
// counts them, and the hydrations and evictions that move streams between
// the two.
func (db *DB) SchedulerStats() SchedulerStats {
	var out SchedulerStats
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

// WaitIdle runs every stream's maintenance backlog and commits it — the
// retry of every failed write or merge, and a DB-wide quiescence barrier for
// tests, checkpoints and orderly shutdowns. Only hydrated streams can hold a
// backlog (eviction drains before sealing), so cold streams are skipped
// without hydrating them. It returns the first failure encountered (after
// attempting every stream).
func (db *DB) WaitIdle() error {
	return db.eachHydrated(func(_ *Stream, e *engine) error { return e.SyncMaintenance() })
}
