package partition

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"repro/internal/disk"
	"repro/internal/extsort"
	"repro/internal/radix"
)

// Config parametrizes a Store. There is no sort-memory bound: Seal sorts
// its step in memory with one transient scratch of the step's size, so
// a step of n values briefly holds 2n, and the sort does no device I/O.
type Config struct {
	// Kappa is the merge threshold κ (> 1): each level holds at most κ
	// partitions; a level past it merges its oldest κ+1 into one a level up.
	Kappa int
	// Eps1 is the historical summary parameter ε₁ = ε/2 (Algorithm 1).
	Eps1 float64
	// SpillBatches is ignored. A sealed step is written once, as its level-0
	// partition; the field stays so existing callers compile.
	SpillBatches bool
	// Namespace identifies the logical stream this store belongs to when
	// several stores multiplex one device through namespaced disk views
	// (disk.Manager.Namespace). It is recorded in the manifest and checked
	// on load, so a store cannot silently resume from another stream's
	// state. Empty for single-stream stores on the root view.
	Namespace string
	// ProbeMemoEntries bounds the per-version rank-probe memo attached to
	// each published Version (see ProbeMemo). Not positive disables
	// memoization.
	ProbeMemoEntries int
}

func (c *Config) validate() error {
	if err := ValidateKappa(c.Kappa); err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	if err := ValidateEps1(c.Eps1); err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	return nil
}

// UpdateBreakdown reports where one time step's update spent its time and
// I/O, split into the paper's four phases (Figure 6/7): loading the step —
// the write of its level-0 partition, the step's one trip to the device —
// sorting it (CPU time: every step is sorted in memory, so the sort does no
// I/O), merging overflowing levels, and summary maintenance. InstallOne
// fills every phase but the merge, the sort from its Seal; a merge's I/O is
// MergeIO.
type UpdateBreakdown struct {
	Load, Sort, Merge, Summary time.Duration
	LoadIO, MergeIO            disk.Stats
	// Merges is the number of level merges this update triggered.
	Merges int
	// BatchSize is the number of elements the step closed.
	BatchSize int64
}

// TotalTime returns the total update time.
func (u UpdateBreakdown) TotalTime() time.Duration { return u.Load + u.Sort + u.Merge + u.Summary }

// TotalIO returns total block accesses across all phases.
func (u UpdateBreakdown) TotalIO() uint64 {
	return u.LoadIO.Total() + u.MergeIO.Total()
}

// ErrMergeIncomplete marks an AddBatch whose level-0 partition was published
// — the step is counted and its data queryable — but whose merge failed. The
// overflowing level keeps its inputs and the next AddBatch retries it;
// callers must treat the step as loaded.
var ErrMergeIncomplete = errors.New("partition: level merge incomplete (retried at the next update)")

// SealedBatch is one time step that has been sealed — its step number
// assigned, its batch sorted and part of the published Version
// (Version.Sealed) — but whose level-0 partition is not published yet,
// because its write is still running or has failed. A store holds at most
// one.
type SealedBatch struct {
	// ID is the batch's store-unique id; its level-0 partition takes it.
	ID int64
	// Count is the number of elements.
	Count int64
	// Step is the time step the batch closes.
	Step int

	// data buffers the batch, sorted by Seal, until its partition is
	// written; sort is what that sort took.
	data []int64
	sort time.Duration
}

// Data returns the batch, sorted ascending. Nothing may change it before
// its install.
func (sb *SealedBatch) Data() []int64 { return sb.data }

// MemoryBytes returns the heap the batch holds until its install: its
// buffer, at capacity.
func (sb *SealedBatch) MemoryBytes() int64 { return int64(cap(sb.data)) * 8 }

// Store is HD + HS: the on-disk leveled partition structure together with
// per-partition in-memory summaries.
//
// The store separates two kinds of state:
//
//   - Published state (cur, live, retired, nextID; guarded by vmu): the
//     immutable Version chain queries pin, plus the file-id counter. Safe for
//     concurrent use. The current Version is the stream's one history: its
//     entries are the leveled structure that installs and merges edit —
//     oldest first, each Summary.Part carrying its level, so every level is
//     one contiguous run of the list and levels descend along it (a merge
//     takes a level's oldest κ+1 partitions, and its output is the newest
//     partition of the next level up) — and after them at most one sealed
//     step, which Seal sets and an install moves into the entries. Every
//     edit publishes a new Version. One installer appends to the entries and
//     one merger splices them, each serialized by its caller; the store lets
//     the two run at once, and the engine runs both, with the seal and the
//     commit, under its one write-path lock.
//   - Durable state: the manifest, always written from a consistent
//     published snapshot under the commit lock, so durable manifests never
//     regress to an older version.
//
// Mutations follow the crash-consistent commit protocol: installs and merges
// only ever write new files (monotonically increasing ids; a name that was
// ever published is never reused) and retire superseded files — merged-away
// partitions — onto the version-tagged retired list. Commit orders
// write-data → sync → commit-manifest → sync; a retired file is physically
// removed only once a manifest not referencing it is durable AND no live
// version can still read it (see version.go). A crash at any point leaves
// either the old manifest (new files are unreferenced orphans, collected by
// CollectOrphans) or the new manifest (whose data the first sync made durable
// before the commit).
//
// Every partition file — a level-0 partition sorted in memory, or a
// κ-merge — is written by writeRun over extsort.WriteRun, which refuses a
// run that steps backwards: a partition damaged on the device stops the
// merge that reads it (see mergeLevel), not the next LoadStore.
type Store struct {
	dev *disk.Manager
	cfg Config

	// Published state.
	vmu          sync.Mutex
	cur          *Version
	live         []*Version
	retired      []retiredFile
	committedSeq int64
	nextID       int64

	orphans atomic.Bool // a failed install or merge may have left its file
	// cmu serializes manifest commits so the durable manifest sequence is
	// monotone. lastSeq and lastNextID, guarded by it, are the version seq
	// and NextID the last successful commit wrote.
	cmu                 sync.Mutex
	lastSeq, lastNextID int64

	// pinCond (lazily created under vmu by DrainPins) is broadcast on every
	// Release so teardown can wait out in-flight query pins.
	pinCond *sync.Cond

	// memoCtr aggregates probe-memo traffic across every version.
	memoCtr memoCounters

	// sortBuf keeps the sort kernel's scratch, a step long, from one sort
	// (Seal, SortTail) to the next, weakly: it adds nothing to the live heap
	// the GC paces itself by, and a sort after a GC allocates it again.
	sortBuf weak.Pointer[[]int64]
}

// NewStore creates an empty historical store on the given device.
func NewStore(dev *disk.Manager, cfg Config) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Store{dev: dev, cfg: cfg}
	s.cur = &Version{store: s, seq: 1, refs: 1, memo: s.newMemo()}
	s.live = []*Version{s.cur}
	s.committedSeq = 0
	return s, nil
}

// TotalCount returns n, the number of historical elements — installed
// partitions plus the sealed step.
func (s *Store) TotalCount() int64 {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	return s.cur.total
}

// Steps returns the number of time steps sealed so far (installed or
// not).
func (s *Store) Steps() int {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	return s.cur.Steps()
}

// Sealed returns the current version's sealed step, or nil
// (Version.Sealed).
func (s *Store) Sealed() *SealedBatch {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	return s.cur.sealed
}

// Levels returns the number of non-empty levels in the current version.
func (s *Store) Levels() int {
	v := s.Pin()
	defer v.Release()
	max := 0
	for _, e := range v.entries {
		if e.Part.Level+1 > max {
			max = e.Part.Level + 1
		}
	}
	return max
}

// PartitionCount returns the number of live partitions in the current
// version.
func (s *Store) PartitionCount() int {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	return len(s.cur.entries)
}

// Entries returns the current version's (partition, summary) pairs, oldest
// first (Version.Entries). The returned slice is an immutable snapshot;
// long-running readers that probe partition files should Pin a Version
// instead so reclamation waits for them.
func (s *Store) Entries() []*Summary {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	return s.cur.entries
}

// MemoryBytes returns the footprint of HS — Lemma 8's O(κ·log_κ(T)/ε).
func (s *Store) MemoryBytes() int64 {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	return s.cur.MemoryBytes()
}

// allocID reserves the next store-unique file id.
func (s *Store) allocID() int64 {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	id := s.nextID
	s.nextID++
	return id
}

// AddBatch loads one time step's batch into the warehouse in one call:
// Settle, Seal, Settle, for callers that are the store's only writer (layer
// benchmarks, tests); Seal sorts data in place. step must be the next time
// step. Only a step the first Settle leaves sealed stops the seal, not a
// merge that fails again. A failed merge is ErrMergeIncomplete: the step is
// installed, and the next Settle retries the merge. It commits nothing.
func (s *Store) AddBatch(data []int64, step int) (UpdateBreakdown, error) {
	if len(data) == 0 {
		return UpdateBreakdown{}, fmt.Errorf("partition: sealing empty batch")
	}
	if at := s.Steps(); step != at+1 {
		return UpdateBreakdown{}, fmt.Errorf("partition: batch for step %d, store is at step %d", step, at)
	}
	if _, _, err := s.Settle(); err != nil && s.Sealed() != nil {
		return UpdateBreakdown{}, err
	}
	s.Seal(data)
	bd, _, err := s.Settle()
	if err != nil && s.Sealed() == nil {
		err = errors.Join(ErrMergeIncomplete, err)
	}
	return bd, err
}

// Settle brings the store up to date: it writes the sealed step, if any
// (InstallOne), then runs Merge until no level holds more than κ partitions
// — the merges Algorithm 3 makes due — and reports both in one breakdown.
// It returns the installed step, 0 when nothing was sealed or the write
// failed, and stops at the first failure: a failed write leaves the step
// sealed, a failed merge keeps its level's inputs live, and the next Settle
// retries either, the sealed step first. It commits nothing. The caller
// must be the store's single writer.
func (s *Store) Settle() (UpdateBreakdown, int, error) {
	bd, step, err := s.InstallOne()
	if err != nil {
		return bd, step, err
	}
	t0 := time.Now()
	for {
		merged, io, err := s.Merge()
		bd.MergeIO = bd.MergeIO.Add(io)
		if err != nil || !merged {
			bd.Merge = time.Since(t0)
			return bd, step, err
		}
		bd.Merges++
	}
}

// Seal closes one time step without I/O: data is sorted in place (with the
// store's kept scratch) and becomes the sealed step of a Version that shares
// the current partitions and probe memo. From the publish on the step is
// counted and answered by every reader, from its sorted data until its
// partition is published; InstallOne then writes it, durable once its
// partition is published and a Commit returns nil. data must not be empty,
// and nothing but the store may change it until its install.
//
// A store holds at most one sealed step: the caller installs a step whose
// write failed before it seals the next, and Seal panics otherwise. Seal may
// run concurrently with Merge and Commit; the caller must be the store's
// single sealer.
func (s *Store) Seal(data []int64) *SealedBatch {
	t0 := time.Now()
	s.SortTail(data, 0)
	sort := time.Since(t0)
	s.vmu.Lock()
	defer s.vmu.Unlock()
	if old := s.cur.sealed; old != nil {
		panic(fmt.Sprintf("partition: Seal with step %d still sealed", old.Step))
	}
	sb := &SealedBatch{ID: s.nextID, Count: int64(len(data)), Step: s.cur.Steps() + 1, data: data, sort: sort}
	s.nextID++
	s.publishLocked(s.cur.entries, sb, s.cur.memo)
	return sb
}

// SortTail sorts data in place, whose first sorted values are ascending
// already, with the scratch Seal keeps (radix.SortTail): the live step's
// batch at a read, so a stream holds one step-sized scratch. It shares that
// scratch with Seal, so its caller must be the store's single sealer, never
// beside a Seal.
func (s *Store) SortTail(data []int64, sorted int) {
	buf := s.sortBuf.Value()
	if buf == nil {
		buf = new([]int64)
		s.sortBuf = weak.Make(buf)
	}
	*buf = radix.SortTail(data, sorted, *buf)
}

// InstallOne writes the sealed step as a new level-0 partition — its one
// write, from the batch Seal sorted, its summary captured in flight — and
// publishes it by appending it to the entries. Its breakdown's Sort is the
// seal's. It returns the installed step number, 0 when nothing was sealed or
// the write failed (the step then stays sealed for a retry). It merges
// nothing (Merge does) and makes nothing durable (Commit does). The caller
// must be the store's single installer; Merge and Commit may run beside it.
func (s *Store) InstallOne() (UpdateBreakdown, int, error) {
	sb := s.Sealed()
	if sb == nil {
		return UpdateBreakdown{}, 0, nil
	}

	// The partition takes its batch's id: a retried install then rewrites
	// the file a failed attempt left behind instead of stranding it.
	part := &Partition{
		ID:        sb.ID,
		Level:     0,
		Count:     sb.Count,
		StartStep: sb.Step,
		EndStep:   sb.Step,
		dev:       s.dev,
		name:      fmt.Sprintf("part-%06d.dat", sb.ID),
	}
	bd := UpdateBreakdown{BatchSize: sb.Count, Sort: sb.sort}
	dev := s.dev.Metered()
	t0 := time.Now()
	sum, err := s.writeRun(dev, extsort.SliceSource(sb.data), part)
	bd.Load, bd.LoadIO = time.Since(t0), dev.Stats()
	if err != nil {
		s.orphans.Store(true)
		return bd, 0, fmt.Errorf("partition: install sealed step %d: %w", sb.Step, err)
	}

	// From this publish on the step is read from its partition. A merge may
	// have spliced the entries since the write began; installs only ever
	// append to whatever is current.
	t0 = time.Now()
	s.vmu.Lock()
	s.publishLocked(append(slices.Clip(s.cur.entries), sum), nil, s.newMemo())
	s.vmu.Unlock()
	bd.Summary = time.Since(t0)
	return bd, sb.Step, nil
}

// Merge runs one merge of Algorithm 3 (lines 9-13): the lowest level holding
// more than κ partitions has its oldest κ+1 merged, in one sequential pass
// with the summary captured in flight, into one partition a level up, which
// is spliced over the run it read and published with the inputs retired. It
// reports whether a merge ran and the merge's own I/O. Installs may append
// beside it: nothing but a merge removes entries, so the run is where the
// merge found it. On a failure the level keeps its inputs (see mergeLevel).
// The caller must be the store's single merger; Merge commits nothing.
func (s *Store) Merge() (bool, disk.Stats, error) {
	ents := s.Entries()
	start, ok := overflow(ents, s.cfg.Kappa)
	if !ok {
		return false, disk.Stats{}, nil
	}
	run := ents[start : start+s.cfg.Kappa+1]
	dev := s.dev.Metered()
	merged, err := s.mergeLevel(dev, run)
	if err != nil {
		s.orphans.Store(true)
		return false, dev.Stats(), err
	}
	s.vmu.Lock()
	// A fresh slice: the published list is shared with pinned readers.
	ents = s.cur.entries
	v := s.publishLocked(slices.Concat(ents[:start], []*Summary{merged}, ents[start+len(run):]), s.cur.sealed, s.newMemo())
	for _, e := range run {
		s.retired = append(s.retired, retiredFile{name: e.Part.name, seq: v.seq})
	}
	s.vmu.Unlock()
	return true, dev.Stats(), nil
}

// writeRun writes part's file through dev from src with the one run writer
// (extsort.WriteRun, which refuses a source that steps backwards), capturing
// the partition's summary as the elements pass. A run that is not exactly
// part.Count elements long is an error; the file it leaves is overwritten by
// the retry, like any failed install's.
func (s *Store) writeRun(dev *disk.Manager, src extsort.Source, part *Partition) (*Summary, error) {
	cap := newCapture(part, s.cfg.Eps1)
	n, err := extsort.WriteRun(dev, part.name, src, cap.feedSlice)
	if err != nil {
		return nil, err
	}
	if n != part.Count {
		return nil, fmt.Errorf("partition: %s was written with %d elements, expected %d", part.name, n, part.Count)
	}
	return cap.summary()
}

// mergeLevel multi-way merges a run of one level's partitions, oldest first,
// through dev into a single partition one level up with a single sequential
// pass (Algorithm 3 lines 9-13), capturing the merged partition's summary
// in-flight.
//
// An input that steps backwards — a partition damaged on the device after it
// was written — fails the merge in the run writer: the output is aborted,
// nothing is retired, every input stays live and readable, and the level
// stays over κ, so the same error (naming the run's input files and the
// offending pair of values) comes back from each later merge until the file
// is repaired.
func (s *Store) mergeLevel(dev *disk.Manager, run []*Summary) (*Summary, error) {
	id := s.allocID()
	first := run[0].Part
	merged := &Partition{
		ID:        id,
		Level:     first.Level + 1,
		StartStep: first.StartStep,
		EndStep:   run[len(run)-1].Part.EndStep,
		dev:       s.dev,
		name:      fmt.Sprintf("part-%06d.dat", id),
	}
	names := make([]string, 0, len(run))
	for _, e := range run {
		names = append(names, e.Part.name)
		merged.Count += e.Part.Count
	}
	merger, closeAll, err := extsort.OpenRuns(dev, names)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	sum, err := s.writeRun(dev, merger, merged)
	if err != nil {
		return nil, fmt.Errorf("partition: merging level %d %v: %w", first.Level, names, err)
	}
	return sum, nil
}

// Commit makes the store's current published state durable: a data barrier
// guarantees every file the manifest will reference is on stable storage,
// the manifest is committed atomically from a consistent published
// snapshot, and a second barrier makes the commit itself durable. Only then
// do files superseded by this state become removable — and they are
// physically removed only once no pinned Version can still read them.
// Sealed steps are not in the manifest: a step is durable once its
// partition is published and a Commit returns nil. A commit whose version
// seq and NextID equal those of the last successful one has nothing new to
// make durable: it writes and syncs nothing, and only reclaims.
//
// Nothing else in the store commits: the engine calls Commit once per
// EndStep and at its retries and checkpoints. It is safe to call
// concurrently; commits are serialized and the durable manifest sequence is
// monotone.
func (s *Store) Commit(manifestName string) error {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	// The snapshot is taken BEFORE the data barrier: every file a published
	// version references was fully written before publish, so syncing after
	// the snapshot guarantees the manifest only ever references durable
	// data — even if a concurrent install publishes a newer version between
	// the snapshot and the barrier (that version's files ride the next
	// commit).
	s.vmu.Lock()
	m, seq := s.manifestSnapshotLocked()
	s.vmu.Unlock()
	if seq != s.lastSeq || m.NextID != s.lastNextID {
		if err := s.dev.Sync(); err != nil {
			return fmt.Errorf("partition: commit data barrier: %w", err)
		}
		if err := writeManifest(s.dev, manifestName, m); err != nil {
			return err
		}
		if err := s.dev.Sync(); err != nil {
			return fmt.Errorf("partition: commit manifest barrier: %w", err)
		}
		s.lastSeq, s.lastNextID = seq, m.NextID
	}
	s.vmu.Lock()
	s.committedSeq = max(s.committedSeq, seq)
	reclaim := s.takeReclaimableLocked()
	s.vmu.Unlock()
	s.removeRetired(reclaim)
	return nil
}

// MayHoldOrphans reports whether the store's view may hold a file no
// manifest names and no later commit of this store removes — the output of a
// failed install or merge, or a retired file not yet reclaimed: the only
// orphans a running process makes.
func (s *Store) MayHoldOrphans() bool {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	return s.orphans.Load() || len(s.retired) > 0
}

// LevelInfo describes one level of HD for diagnostics.
type LevelInfo struct {
	// Level is the level number (0 = freshest batches).
	Level int
	// Partitions is the number of live partitions at this level (≤ κ).
	Partitions int
	// Elements is the total element count across the level.
	Elements int64
	// Steps is the number of time steps the level covers.
	Steps int
}

// Describe is Version.Describe on the current version.
func (s *Store) Describe() []LevelInfo {
	v := s.Pin()
	defer v.Release()
	return v.Describe()
}

// Describe returns a per-level summary of the version's layout (level order
// ascending).
func (v *Version) Describe() []LevelInfo {
	var out []LevelInfo
	for _, e := range v.entries {
		for len(out) <= e.Part.Level {
			out = append(out, LevelInfo{Level: len(out)})
		}
		info := &out[e.Part.Level]
		info.Partitions++
		info.Elements += e.Part.Count
		info.Steps += e.Part.Steps()
	}
	return out
}
