package hsq

import (
	"errors"

	"repro/internal/core"
	"repro/internal/query"
)

// Maintenance: the level merges the steps EndStep writes make due, run as
// part of the step's update (Algorithm 3, HistUpdate).
//
// EndStep is one pipeline — settle, cut and seal, settle, commit (see
// Stream.EndStep), all of it under the engine's write-path lock. The cut and
// the seal run under the engine lock too: the in-memory batch leaves the
// live step, is sorted in place (the step's one sort) and becomes the sealed
// step of the store's published partition.Version, which is the stream's
// one history — so counts and answers agree from the cut on — and the live
// step starts empty. Settling (engine.settle) then writes the sorted step,
// outside every engine lock a reader or producer needs, as its level-0
// partition (one sequential write); until that publishes, queries cover the
// step through a summary gathered from its sorted batch (a core.StreamPiece
// from core.SortedSummary). Each step is written once. Then Algorithm 3's
// merges: a level holding more than κ partitions merges its oldest κ+1 into
// one a level up, again outside the locks readers and producers take, and the
// EndStep commits. Settling is partition.Store.Settle, which decides the
// order of every retry: a step left sealed before any merge.
//
// One failure rule: settling stops at its first failure, and its caller
// commits what it did. A step whose level-0 write fails stays sealed —
// counted, answered from its sorted batch — and a failed merge keeps its
// inputs live; both are retried by the next settle: the start of the next
// EndStep, or the barrier of SyncMaintenance, DB.Checkpoint and Close
// (DB.checkpoint). Only a step still sealed after that first settle stops
// an EndStep's cut — no step is sealed behind another. A merge that fails
// again does not: the step is cut, written and committed, and the settle
// after the cut retries the merge and reports it. A step is durable once a
// commit after its write returns nil.

// MaintenanceSync is the one value Options.Maintenance accepts besides "".
const MaintenanceSync = "sync"

// maintAccum aggregates a stream's write-path counters (StreamStatus);
// guarded by the engine's mu.
type maintAccum struct {
	installs int
	merges   int
	running  int // settles in flight
	lastErr  string
}

// settle is partition.Store.Settle — the sealed step, if any, written as its
// level-0 partition, then every merge due, in one breakdown (zero when
// nothing was due) — with the stream's counters around it: the installed
// step's batch buffer goes back to the observe path if no observe has
// needed a new one since the cut, and a failure shows as LastError until a
// later settle succeeds. It commits nothing. Caller holds loadMu.
func (e *engine) settle() (UpdateStats, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return UpdateStats{}, ErrClosed
	}
	sb := e.store.Sealed()
	e.mstats.running++
	e.mu.Unlock()

	us, step, err := e.store.Settle()

	e.mu.Lock()
	defer e.mu.Unlock()
	e.mstats.running--
	if step != 0 {
		// Queries gather the sealed step's summary under e.mu, which this
		// holds, so no reader is left on the buffer.
		if buf := sb.Data(); len(e.batch) == 0 && cap(buf) > cap(e.batch) {
			e.batch = buf[:0]
		}
		e.mstats.installs++
	}
	e.mstats.merges += us.Merges
	switch {
	case err != nil:
		e.mstats.lastErr = err.Error()
	case step != 0 || us.Merges > 0:
		e.mstats.lastErr = ""
	}
	return us, err
}

// checkpoint settles the engine and commits, whatever settling did, then
// returns the full-scope summary of the state it committed. With seal set
// it then closes the engine under the same hold of the write path, so no
// EndStep lands between the commit and the close. A failure still commits
// what settling did, and leaves the engine open.
func (e *engine) checkpoint(seal bool) (*core.ShardSummary, error) {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	_, err := e.settle()
	if errors.Is(err, ErrClosed) {
		return nil, err
	}
	if cerr := e.store.Commit(manifestName); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	sum, err := e.ScopedSummary(query.Scope{})
	if seal {
		e.markClosed()
	}
	return sum, err
}

// checkpoint is the one per-stream barrier: the engine settles and commits,
// and the stream's sidecar is brought in line with the state that commit
// made durable. It is Stream.SyncMaintenance and each stream's step of
// DB.Checkpoint; with seal set it also closes the engine — how eviction and
// DB.Close seal a stream — and sealing a closed engine is a no-op.
func (db *DB) checkpoint(stream string, eng *engine, seal bool) error {
	sum, err := eng.checkpoint(seal)
	switch {
	case err == nil:
		db.refreshSidecar(stream, sum)
	case seal && errors.Is(err, ErrClosed):
		return nil
	}
	return err
}
