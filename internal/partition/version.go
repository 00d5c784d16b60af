package partition

import "sync"

// Snapshot isolation for the historical store. The store's published state
// is a chain of immutable Version objects, and the current one is the
// stream's whole history: the installed partitions, then at most one sealed
// step after them. Each install, merge or seal publishes a fresh Version
// whose partition list is a copy of the current one with the edit applied.
// Queries pin a Version with Pin, run entirely against it — its partition
// files are immutable on disk — and Release it when done, so they never
// contend with the engine write lock or observe a half-installed layout.
//
// File reclamation composes the pin discipline with the crash-consistency
// rule introduced with the commit protocol: a file superseded while building
// version S (a merged-away partition) is physically removed only once BOTH
// hold:
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
// this list and the Step of Sealed, for every caller.

// Version is one immutable snapshot of the store's published history: the
// partition set with the per-partition summaries, then the sealed step not
// yet installed, if any. It is created by the store (publishLocked) and
// handed to queries by Pin; all accessors are safe for concurrent use since
// the snapshot never mutates.
type Version struct {
	store *Store
	seq   int64
	// entries is the frozen (partition, summary) list, oldest first (see
	// Entries).
	entries []*Summary
	// sealed is the step after entries whose partition is not published
	// yet, nil when there is none (see Sealed).
	sealed *SealedBatch
	total  int64
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
// the previous one ends) and ending at InstalledSteps, with levels that
// never increase along it. An install appends to the list and a merge
// replaces a level's oldest κ+1 partitions in place; no reader re-orders it,
// so every surface hands core.BuildPieces the same run order. The slice is
// shared and must not be mutated.
func (v *Version) Entries() []*Summary { return v.entries }

// Sealed returns the snapshot's sealed step — step InstalledSteps+1, whose
// level-0 write is running or has failed — or nil. Entries and Sealed are
// the only record of the stream's history; a seal sets Sealed and an
// install moves it into Entries, in one publish.
func (v *Version) Sealed() *SealedBatch { return v.sealed }

// overflow returns where, in ents, the oldest κ+1 partitions of the lowest
// level holding more than κ start; ok is false when no level does. A level
// is one run of the list, and the lowest is the newest.
func overflow(ents []*Summary, kappa int) (start int, ok bool) {
	for end := len(ents); end > 0; end = start {
		start = end - 1
		for start > 0 && ents[start-1].Part.Level == ents[end-1].Part.Level {
			start--
		}
		if end-start > kappa {
			return start, true
		}
	}
	return 0, false
}

// Backlog returns the snapshot's deferred work in steps and elements: its
// sealed step, plus the merge debt — on every level, the partitions past
// its κ oldest.
func (v *Version) Backlog() (steps int, elements int64) {
	if sb := v.sealed; sb != nil {
		steps, elements = 1, sb.Count
	}
	ents := v.entries
	for start, end := 0, 0; start < len(ents); start = end {
		for end = start; end < len(ents) && ents[end].Part.Level == ents[start].Part.Level; end++ {
			if end-start >= v.store.cfg.Kappa {
				steps++
				elements += ents[end].Part.Count
			}
		}
	}
	return steps, elements
}

// Memo returns the version's rank-probe memo, valid for queries that probe
// exactly the version's full entry set; nil when memoization is disabled.
func (v *Version) Memo() *ProbeMemo { return v.memo }

// TotalCount returns n, the number of elements across the snapshot's
// partitions and its sealed step.
func (v *Version) TotalCount() int64 { return v.total }

// InstalledSteps returns the number of time steps the snapshot's partitions
// cover.
func (v *Version) InstalledSteps() int {
	if len(v.entries) == 0 {
		return 0
	}
	return v.entries[len(v.entries)-1].Part.EndStep
}

// Steps returns the number of time steps the snapshot covers: installed
// plus sealed.
func (v *Version) Steps() int {
	if v.sealed != nil {
		return v.sealed.Step
	}
	return v.InstalledSteps()
}

// PartitionCount returns the number of partitions in the snapshot.
func (v *Version) PartitionCount() int { return len(v.entries) }

// MemoryBytes returns the partition-summary footprint of the snapshot (HS).
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

// publishLocked makes the Version of ents and sealed current, with memo as
// its probe memo: the current one when the partition set is unchanged (a
// seal), a fresh one otherwise. Each caller derives ents and sealed from the
// current version under vmu — the installer appends to the entries and
// clears sealed, the merger splices the entries, Seal sets sealed — with ents
// a list no published Version's slice can grow into. Caller holds vmu.
func (s *Store) publishLocked(ents []*Summary, sealed *SealedBatch, memo *ProbeMemo) *Version {
	v := &Version{
		store:   s,
		seq:     s.cur.seq + 1,
		entries: ents,
		sealed:  sealed,
		refs:    1, // the store's own ref on the current version
		memo:    memo,
	}
	for _, e := range ents {
		v.total += e.Part.Count
	}
	if sealed != nil {
		v.total += sealed.Count
	}
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
