package partition

import (
	"slices"
	"sync"
)

// Snapshot isolation for the historical store. The store's published state
// is a chain of immutable Version objects: each install or merge edits the
// private build state and then publishes a fresh Version (a copy-on-write
// snapshot of the partition set). Queries pin a Version with Pin, run
// entirely against it — its partition files are immutable on disk — and
// Release it when done, so they never contend with the engine write lock or
// observe a half-installed layout.
//
// File reclamation composes the pin discipline with the crash-consistency
// rule introduced with the commit protocol: a file superseded while building
// version S (a merged-away partition, a consumed raw spill) is physically
// removed only once BOTH hold:
//
//   - a manifest of some version ≥ S is durably committed, so no durable
//     manifest references the file (the crash rule), and
//   - every pinned version older than S has been released, so no in-flight
//     query can still read it (the snapshot rule).
//
// Until then the file sits on the retired list; a crash simply strands it as
// an orphan for LoadStore's collector.
//
// A Version lists its partitions in one order, oldest first (Entries), and
// offers no step-range selection of its own: which spans a windowed, shifted
// or as-of read sees is decided by query.Scope.Select over the EndSteps of
// this list, for every caller.

// Version is one immutable snapshot of the store's published partition set
// plus the per-partition summaries. It is created by the store (publish) and
// handed to queries by Pin; all accessors are safe for concurrent use since
// the snapshot never mutates.
type Version struct {
	store *Store
	seq   int64
	// entries is the frozen (partition, summary) list, oldest first (see
	// Entries).
	entries []*Summary
	total   int64
	// installed is the number of time steps covered by the partitions
	// (sealed-but-uninstalled steps are not part of any Version; the engine
	// layers them on top as stream pieces).
	installed int
	// refs is guarded by store.vmu. The store itself holds one ref on the
	// current version; each Pin adds one.
	refs int
	// memo caches rank probes against this version's immutable partition
	// set; nil when memoization is disabled. Entries never invalidate —
	// they die with the version (see ProbeMemo).
	memo *ProbeMemo
}

// Seq returns the version's monotonically increasing sequence number.
func (v *Version) Seq() int64 { return v.seq }

// Entries returns the snapshot's (partition, summary) pairs, partitions
// oldest-first: StartStep-ascending, contiguous (each starts one step after
// the previous one ends) and ending at InstalledSteps. publish lays the
// list out once and no reader re-orders it, so every surface hands
// core.BuildPieces the same run order. The slice is shared and must not be
// mutated.
func (v *Version) Entries() []*Summary { return v.entries }

// Memo returns the version's rank-probe memo, valid for queries that probe
// exactly the version's full entry set; nil when memoization is disabled.
func (v *Version) Memo() *ProbeMemo { return v.memo }

// TotalCount returns the number of elements across the snapshot.
func (v *Version) TotalCount() int64 { return v.total }

// InstalledSteps returns the number of time steps the snapshot covers.
func (v *Version) InstalledSteps() int { return v.installed }

// PartitionCount returns the number of partitions in the snapshot.
func (v *Version) PartitionCount() int { return len(v.entries) }

// MemoryBytes returns the summary footprint of the snapshot.
func (v *Version) MemoryBytes() int64 {
	var b int64
	for _, s := range v.entries {
		b += s.MemoryBytes()
	}
	return b
}

// Release drops one pin. When the last pin on a superseded version drops,
// files retired since it was current become reclaimable (subject to the
// manifest-commit condition) and are physically removed — outside the
// version lock, so the pin fast path never waits on file deletion.
func (v *Version) Release() {
	s := v.store
	s.vmu.Lock()
	if v.refs <= 0 {
		s.vmu.Unlock()
		panic("partition: Version released more times than pinned")
	}
	v.refs--
	var reclaim []retiredFile
	if v.refs == 0 && v != s.cur {
		s.dropLiveLocked(v)
		reclaim = s.takeReclaimableLocked()
	}
	if s.pinCond != nil {
		s.pinCond.Broadcast()
	}
	s.vmu.Unlock()
	s.removeRetired(reclaim)
}

// DrainPins blocks until every query pin is released (only the store's own
// reference on the current version remains). Destroy and backend teardown
// call it after making new pins impossible, so no in-flight query ever
// reads a file they are about to delete.
func (s *Store) DrainPins() {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	if s.pinCond == nil {
		s.pinCond = sync.NewCond(&s.vmu)
	}
	for len(s.live) > 1 || s.cur.refs > 1 {
		s.pinCond.Wait()
	}
}

// retiredFile is a file superseded while building version seq: it is
// referenced only by versions older than seq and by manifests committed
// before seq.
type retiredFile struct {
	name string
	seq  int64
}

// Pin returns the current version with its refcount raised. The caller must
// Release it exactly once.
func (s *Store) Pin() *Version {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	s.cur.refs++
	return s.cur
}

// LiveVersions returns how many versions are alive (current + pinned), for
// diagnostics and tests.
func (s *Store) LiveVersions() int {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	return len(s.live)
}

// publish snapshots the build state into a new immutable Version and makes
// it current. Files retired during this build edit are attached to the new
// sequence number; popPending additionally consumes the oldest sealed batch
// (whose data the edit just installed). Called only by the single build
// mutator.
func (s *Store) publish(popPending bool) *Version {
	var ents []*Summary
	var total int64
	for _, lvl := range s.levels {
		for _, e := range lvl {
			ents = append(ents, e.sum)
			total += e.part.Count
		}
	}
	// The one order every reader sees: partitions tile (0, installed], so
	// StartStep orders them totally.
	slices.SortFunc(ents, func(a, b *Summary) int { return a.Part.StartStep - b.Part.StartStep })
	s.vmu.Lock()
	defer s.vmu.Unlock()
	if popPending && len(s.pending) > 0 {
		s.pending = s.pending[1:]
	}
	v := &Version{
		store:     s,
		seq:       s.cur.seq + 1,
		entries:   ents,
		total:     total,
		installed: s.steps - len(s.pending),
		refs:      1, // the store's own ref on the current version
		memo:      s.newMemo(),
	}
	for _, name := range s.buildRetired {
		s.retired = append(s.retired, retiredFile{name: name, seq: v.seq})
	}
	s.buildRetired = nil
	old := s.cur
	s.cur = v
	s.live = append(s.live, v)
	old.refs--
	if old.refs == 0 {
		s.dropLiveLocked(old)
	}
	return v
}

// dropLiveLocked removes a dead version from the live list. Caller holds vmu.
func (s *Store) dropLiveLocked(v *Version) {
	for i, lv := range s.live {
		if lv == v {
			s.live = append(s.live[:i], s.live[i+1:]...)
			return
		}
	}
}

// minLiveLocked returns the sequence number of the oldest live version.
// Caller holds vmu; the current version is always live.
func (s *Store) minLiveLocked() int64 {
	min := s.cur.seq
	for _, v := range s.live {
		if v.seq < min {
			min = v.seq
		}
	}
	return min
}

// takeReclaimableLocked removes from the retired list — and returns —
// every file no longer referenced by a durable manifest or a live version.
// Eligibility is monotone (pins on old versions only drain, committedSeq
// only grows), so the caller can perform the physical removals after
// dropping vmu without re-checking. Caller holds vmu.
func (s *Store) takeReclaimableLocked() []retiredFile {
	min := s.minLiveLocked()
	kept := s.retired[:0]
	var take []retiredFile
	for _, rf := range s.retired {
		if rf.seq <= s.committedSeq && rf.seq <= min {
			take = append(take, rf)
			continue
		}
		kept = append(kept, rf)
	}
	s.retired = kept
	return take
}

// removeRetired physically deletes reclaimed files, re-queuing any failed
// removal for the next reclaim (or, if the process dies first, for
// LoadStore's orphan collector). Runs without any store lock; concurrent
// reclaimers hold disjoint batches.
func (s *Store) removeRetired(files []retiredFile) {
	var failed []retiredFile
	for _, rf := range files {
		if err := s.dev.Remove(rf.name); err != nil && s.dev.Exists(rf.name) {
			failed = append(failed, rf) // retry at the next reclaim
		}
	}
	if len(failed) > 0 {
		s.vmu.Lock()
		s.retired = append(s.retired, failed...)
		s.vmu.Unlock()
	}
}
