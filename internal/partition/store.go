package partition

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/disk"
	"repro/internal/extsort"
	"repro/internal/gk"
)

// Config parametrizes a Store.
type Config struct {
	// Kappa is the merge threshold κ (> 1): each level holds at most κ
	// partitions; exceeding it triggers a full-level merge.
	Kappa int
	// Eps1 is the historical summary parameter ε₁ = ε/2 (Algorithm 1).
	Eps1 float64
	// SortMemElements bounds the in-memory working set during batch sorting;
	// larger batches fall back to external sort. Defaults to 1M elements.
	SortMemElements int
	// SpillBatches, when true, writes the raw (unsorted) batch to disk
	// before sorting — the paper's "load" phase — so that load I/O is
	// accounted. When false, loading is skipped and batches sort directly
	// from memory (useful for unit tests).
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
	if c.SortMemElements <= 0 {
		c.SortMemElements = 1 << 20
	}
	return nil
}

// Beta1 returns β₁ = ⌈1/ε₁ + 1⌉ for the configured ε₁.
func (c Config) Beta1() int {
	b := int(1.0/c.Eps1) + 1
	if float64(b-1) < 1.0/c.Eps1 {
		b++
	}
	return b
}

// UpdateBreakdown reports where one time step's update spent its time and
// I/O, split into the paper's four phases (Figure 6/7): loading the raw
// batch (the seal's spill), sorting it into a level-0 partition, merging
// overflowing levels, and summary maintenance. Spill fills the load phase and
// BatchSize; InstallOne returns the step's whole breakdown.
type UpdateBreakdown struct {
	Load, Sort, Merge, Summary time.Duration
	LoadIO, SortIO, MergeIO    disk.Stats
	// Merges is the number of level merges this update triggered.
	Merges int
	// BatchSize is the number of elements the step closed.
	BatchSize int64
}

// TotalTime returns the total update time.
func (u UpdateBreakdown) TotalTime() time.Duration { return u.Load + u.Sort + u.Merge + u.Summary }

// TotalIO returns total block accesses across all phases.
func (u UpdateBreakdown) TotalIO() uint64 {
	return u.LoadIO.Total() + u.SortIO.Total() + u.MergeIO.Total()
}

// ErrMergeIncomplete marks an install whose level-0 partition was published
// — the step is counted and its data queryable — but whose cascading merge
// failed. The overflowing level is retried by the next install; callers must
// treat the step as loaded.
var ErrMergeIncomplete = errors.New("partition: level merge incomplete (retried at the next update)")

// SealedBatch is one time step's batch that has been sealed — its step
// number assigned, it and its frozen GK sketch part of the published Version
// (Version.Pending) — but not yet sorted and installed as a level-0
// partition. Its raw spill is written after the seal (Spill, or Commit's
// repair), and the batch is durable once a manifest lists it.
type SealedBatch struct {
	// ID is the batch's store-unique id; it names the raw spill file.
	ID int64 `json:"id"`
	// Name is the raw spill file, or "" while the spill has not succeeded
	// yet (Commit retries it before writing any manifest that would need
	// it). Guarded by the store's vmu.
	Name string `json:"name"`
	// Count is the number of elements.
	Count int64 `json:"count"`
	// Step is the time step the batch closes.
	Step int `json:"step"`

	// data buffers the batch in memory until it is installed; nil after a
	// restart (the raw file is then the only copy).
	data []int64
	// sketch is the stream's GK sketch frozen at the cut, nil after a restart
	// or when the sealer keeps none; ss is its summary, extracted once.
	sketch *gk.Sketch
	once   sync.Once
	ss     []int64
	// load is the breakdown the spill measured, the start of InstallOne's;
	// guarded by vmu like Name.
	load UpdateBreakdown
}

// Summary returns extract applied to the batch's frozen sketch, computed by
// the first caller only: a step installed before anyone asks never pays for
// it. The sketch must be non-nil.
func (sb *SealedBatch) Summary(extract func(*gk.Sketch) []int64) []int64 {
	sb.once.Do(func() { sb.ss = extract(sb.sketch) })
	return sb.ss
}

// MemoryBytes returns the heap the batch holds until its install: the
// buffered data plus the frozen sketch.
func (sb *SealedBatch) MemoryBytes() int64 {
	n := int64(len(sb.data)) * 8
	if sb.sketch != nil {
		n += sb.sketch.MemoryBytes()
	}
	return n
}

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
//     always takes a whole level, and its output is the newest partition of
//     the next level up) — and its pending list is the sealed steps queued
//     after them, which Seal appends to and an install takes the head of.
//     Every edit publishes a new Version. Exactly one mutator edits entries
//     at a time — the engine serializes installers with its maintenance lock
//     — and one sealer appends at a time.
//   - Durable state: the manifest, always written from a consistent
//     published snapshot under the commit lock, so durable manifests never
//     regress to an older version.
//
// Mutations follow the crash-consistent commit protocol: installs only ever
// write new files (monotonically increasing ids; a name that was ever
// published is never reused) and retire superseded files — merged-away
// partitions, consumed raw spills — onto the version-tagged retired list.
// Commit orders write-data → sync →
// commit-manifest → sync; a retired file is physically removed only once a
// manifest not referencing it is durable AND no live version can still read
// it (see version.go). A crash at any point leaves either the old manifest
// (new files are unreferenced orphans, collected by LoadStore) or the new
// manifest (whose data the first sync made durable before the commit).
//
// Every partition file — sorted from memory, from an external sort or from a
// κ-merge — is written by writeRun over extsort.WriteRun, which refuses a
// run that steps backwards: a partition damaged on the device stops the
// merge that reads it (see mergeLevel), not the next LoadStore.
type Store struct {
	dev *disk.Manager
	// mdev is the maintenance-attributed view of the same device: all
	// install I/O (sort, partition writes, merge passes) goes through it so
	// the disk layer can report how much of a stream's traffic is
	// maintenance (foreground spills and query reads use dev).
	mdev  *disk.Manager
	cfg   Config
	beta1 int

	// Published state.
	vmu          sync.Mutex
	cur          *Version
	live         []*Version
	retired      []retiredFile
	committedSeq int64
	nextID       int64

	// cmu serializes manifest commits (the write path's can race a
	// maintenance worker's) so the durable manifest sequence is monotone, and
	// owns every raw spill, so no batch is spilled twice.
	cmu sync.Mutex

	// pinCond (lazily created under vmu by DrainPins) is broadcast on every
	// Release so teardown can wait out in-flight query pins.
	pinCond *sync.Cond

	// memoCtr aggregates probe-memo traffic across every version.
	memoCtr memoCounters
}

// NewStore creates an empty historical store on the given device.
func NewStore(dev *disk.Manager, cfg Config) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Store{dev: dev, mdev: dev.MaintTagged(), cfg: cfg, beta1: cfg.Beta1()}
	s.cur = &Version{store: s, seq: 1, refs: 1, memo: s.newMemo()}
	s.live = []*Version{s.cur}
	s.committedSeq = 0
	return s, nil
}

// TotalCount returns n, the number of historical elements — installed
// partitions plus sealed-but-uninstalled batches.
func (s *Store) TotalCount() int64 {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	return s.cur.total
}

// Steps returns the number of time steps sealed so far (installed or
// pending).
func (s *Store) Steps() int {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	return s.cur.Steps()
}

// Pending returns the current version's sealed steps awaiting installation,
// oldest first (Version.Pending). The slice is an immutable snapshot.
func (s *Store) Pending() []*SealedBatch {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	return s.cur.pending
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

// AddBatch loads one time step's batch into the warehouse in one call: Seal,
// Spill, then InstallOne, for callers that are the store's only writer
// (layer benchmarks, tests). step must be the next time step. Like its parts
// it commits nothing.
func (s *Store) AddBatch(data []int64, step int) (UpdateBreakdown, error) {
	if len(data) == 0 {
		return UpdateBreakdown{}, fmt.Errorf("partition: sealing empty batch")
	}
	if at := s.Steps(); step != at+1 {
		return UpdateBreakdown{}, fmt.Errorf("partition: batch for step %d, store is at step %d", step, at)
	}
	if _, err := s.Spill(s.Seal(data, nil)); err != nil {
		return UpdateBreakdown{}, err
	}
	bd, _, err := s.InstallOne()
	return bd, err
}

// spillLocked writes a sealed batch's raw file unless it has one, recording
// its name and the load phase. Spills are unsorted arrival-order batches, so
// they pin FormatRaw regardless of the device default: delta frames only pay
// off on sorted runs, and recovery wants the dumbest possible format to
// replay. A batch installed while its spill ran is in no Version's pending
// list, so no manifest will list the file: the spill retires it. Caller
// holds cmu.
func (s *Store) spillLocked(sb *SealedBatch) (UpdateBreakdown, error) {
	s.vmu.Lock()
	bd, done := sb.load, sb.Name != ""
	s.vmu.Unlock()
	if done {
		return bd, nil
	}
	name := fmt.Sprintf("batch-raw-%06d.dat", sb.ID)
	t0 := time.Now()
	w, err := s.dev.CreateFormat(name, disk.FormatRaw)
	if err == nil {
		if err = w.AppendSlice(sb.data); err != nil {
			w.Abort()
		} else {
			err = w.Close()
		}
		bd.LoadIO = w.Stats()
	}
	bd.Load = time.Since(t0)
	if err != nil {
		return bd, fmt.Errorf("partition: spill sealed batch %d: %w", sb.ID, err)
	}
	s.vmu.Lock()
	sb.Name, sb.load = name, bd
	if sb.Step <= s.cur.InstalledSteps() {
		s.retired = append(s.retired, retiredFile{name: name, seq: s.cur.seq})
	}
	s.vmu.Unlock()
	return bd, nil
}

// cascadeMerges merges every level holding more than κ partitions
// (Algorithm 3 lines 9-13), lowest level first, and publishes the result once
// with the merged-away inputs retired. A level is a run of the current
// entries, level 0 the newest; its merged partition replaces the run in
// place, where it is the newest of the next level's run. It returns how many
// merges ran; a failed merge ends the cascade, keeping the merges before it.
func (s *Store) cascadeMerges() (int, error) {
	ents := s.Entries()
	var retired []string
	var err error
	merges := 0
	for end := len(ents); end > 0; {
		start := end - 1
		for start > 0 && ents[start-1].Part.Level == ents[end-1].Part.Level {
			start--
		}
		if end-start <= s.cfg.Kappa {
			end = start
			continue
		}
		var merged *Summary
		if merged, err = s.mergeLevel(ents[start:end]); err != nil {
			break
		}
		for _, e := range ents[start:end] {
			retired = append(retired, e.Part.name)
		}
		// A fresh slice: the published list is shared with pinned readers.
		ents = slices.Concat(ents[:start], []*Summary{merged}, ents[end:])
		merges++
		end = start + 1
	}
	if merges > 0 {
		s.vmu.Lock()
		v := s.publishLocked(ents, s.cur.pending, s.newMemo())
		for _, name := range retired {
			s.retired = append(s.retired, retiredFile{name: name, seq: v.seq})
		}
		s.vmu.Unlock()
	}
	return merges, err
}

// Seal closes one time step without I/O: the batch, with the stream's GK
// sketch frozen at the cut (nil when the caller keeps none), becomes the
// newest sealed step of a Version that shares the current partitions and
// probe memo. From the publish on the step is counted and answered by every
// reader. It is durable once its raw file is written (Spill, or Commit's
// repair) and a Commit returns nil, after which a reopened store
// re-installs it from the spill. data must not be empty, and neither it nor
// the sketch may change until Reusable hands them back.
//
// Seal may run concurrently with InstallOne, Spill and Commit; only one Seal
// at a time (the engine's write path serializes end-of-steps).
func (s *Store) Seal(data []int64, sketch *gk.Sketch) *SealedBatch {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	sb := &SealedBatch{ID: s.nextID, Count: int64(len(data)), Step: s.cur.Steps() + 1, data: data, sketch: sketch}
	sb.load.BatchSize = sb.Count
	s.nextID++
	s.publishLocked(s.cur.entries, append(slices.Clip(s.cur.pending), sb), s.cur.memo)
	return sb
}

// Spill writes a sealed batch's raw file — with SpillBatches, the paper's
// "load" phase — and returns the step's load breakdown (Load, LoadIO,
// BatchSize), where InstallOne's breakdown of the step starts. It runs under
// the commit lock, outside any lock a reader or the sealer needs, so a batch
// Commit already repaired is not written twice. A failed spill leaves the
// step sealed; Commit retries it before it writes any manifest that needs
// it.
func (s *Store) Spill(sb *SealedBatch) (UpdateBreakdown, error) {
	if !s.cfg.SpillBatches {
		return UpdateBreakdown{BatchSize: sb.Count}, nil
	}
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.spillLocked(sb)
}

// Reusable hands back the buffers of sb, a batch InstallOne has installed,
// for reuse by the observe path: the batch buffer — nil until its spill is
// written, since the spill may still read it — and the frozen sketch.
// Nothing in the store reads either again.
func (s *Store) Reusable(sb *SealedBatch) ([]int64, *gk.Sketch) {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	if sb.Name == "" {
		return nil, sb.sketch
	}
	return sb.data, sb.sketch
}

// InstallOne sorts the oldest sealed batch into a new level-0 partition with
// its summary captured in-flight, publishes it, then recursively merges
// levels holding more than κ partitions (Algorithm 3, HistUpdate) and
// publishes again — the store's one install routine. It returns the
// installed step number, 0 when nothing was pending or the install failed
// before the step was published (the batch then stays sealed for a retry).
// An error beside a non-zero step is ErrMergeIncomplete: the step is served
// from its level-0 partition, the overflowing level keeps its inputs and the
// next install tries the merge again — until the operator replaces the file,
// if the cause is an input that reads back out of order (see mergeLevel).
// The breakdown is the step's whole update: the load phase Seal measured
// (zero for a batch recovered from a manifest) plus the phases run here.
// The caller must be the single build mutator, and should Commit afterwards:
// InstallOne makes nothing durable.
func (s *Store) InstallOne() (UpdateBreakdown, int, error) {
	s.vmu.Lock()
	if len(s.cur.pending) == 0 {
		s.vmu.Unlock()
		return UpdateBreakdown{}, 0, nil
	}
	sb := s.cur.pending[0]
	bd, rawName := sb.load, sb.Name
	s.vmu.Unlock()

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

	t0 := time.Now()
	io0 := s.mdev.MaintStats()
	data := sb.data
	var sum *Summary
	var err error
	switch {
	case data == nil && sb.Count <= int64(s.cfg.SortMemElements):
		// Recovered batch small enough to sort in memory: one sequential
		// read of the spill.
		data, err = s.readRaw(rawName, sb.Count)
		if err != nil {
			return bd, 0, err
		}
		sum, err = s.sortInMemory(data, part)
	case data != nil && len(data) <= s.cfg.SortMemElements:
		sum, err = s.sortInMemory(data, part)
	default:
		// Large batch: external sort from the spill, written first if the
		// seal's has not been (under the commit lock, which owns spills).
		if rawName == "" {
			s.cmu.Lock()
			_, serr := s.spillLocked(sb)
			s.cmu.Unlock()
			if serr != nil {
				return bd, 0, serr
			}
			rawName = sb.Name
		}
		sum, err = s.sortExternal(rawName, part)
	}
	if err != nil {
		return bd, 0, fmt.Errorf("partition: install sealed step %d: %w", sb.Step, err)
	}
	bd.Sort = time.Since(t0)
	bd.SortIO = s.mdev.MaintStats().Sub(io0)

	// Install at level 0 and publish before merging: from here on the step
	// counts as installed (its frozen summary can be retired), and a merge
	// or commit failure leaves a consistent published state that the next
	// install retries — never a double-installed batch.
	t0 = time.Now()
	s.vmu.Lock()
	v := s.publishLocked(append(slices.Clip(s.cur.entries), sum), s.cur.pending[1:], s.newMemo())
	// Retire the consumed spill in the same move, reading its name under
	// vmu: a spill still running sees the step installed when it finishes
	// and retires its own file. No version references spills, so the new
	// sequence number makes it removable as soon as a manifest of this
	// version commits.
	if sb.Name != "" {
		s.retired = append(s.retired, retiredFile{name: sb.Name, seq: v.seq})
	}
	s.vmu.Unlock()
	bd.Summary = time.Since(t0)

	t0 = time.Now()
	io0 = s.mdev.MaintStats()
	merges, mergeErr := s.cascadeMerges()
	bd.Merges = merges
	bd.Merge = time.Since(t0)
	bd.MergeIO = s.mdev.MaintStats().Sub(io0)
	if mergeErr != nil {
		mergeErr = errors.Join(ErrMergeIncomplete, mergeErr)
	}
	return bd, sb.Step, mergeErr
}

// readRaw reads a raw spill back into memory (the crash-recovery install
// path for batches small enough to sort in memory).
func (s *Store) readRaw(name string, count int64) ([]int64, error) {
	r, err := s.mdev.OpenSequential(name)
	if err != nil {
		return nil, err
	}
	defer r.Close() //nolint:errcheck // read-only
	r.SetReadahead(disk.MergeReadahead)
	out := make([]int64, 0, count)
	for {
		v, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, v)
	}
	if int64(len(out)) != count {
		return nil, fmt.Errorf("partition: spill %s has %d elements, manifest says %d", name, len(out), count)
	}
	return out, nil
}

// writeRun writes part's file from src with the one run writer
// (extsort.WriteRun, which refuses a source that steps backwards), capturing
// the partition's summary as the elements pass. A run that is not exactly
// part.Count elements long is an error; the file it leaves is overwritten by
// the retry, like any failed install's.
func (s *Store) writeRun(src extsort.Source, part *Partition) (*Summary, error) {
	cap := newCapture(part.Count, s.cfg.Eps1, s.beta1)
	n, err := extsort.WriteRun(s.mdev, part.name, src, cap.feed)
	if err != nil {
		return nil, err
	}
	if n != part.Count {
		return nil, fmt.Errorf("partition: %s was written with %d elements, expected %d", part.name, n, part.Count)
	}
	return cap.summary(part)
}

// sortInMemory sorts a copy of data in memory and writes it as the
// partition.
func (s *Store) sortInMemory(data []int64, part *Partition) (*Summary, error) {
	sorted := slices.Clone(data)
	slices.Sort(sorted)
	return s.writeRun(extsort.SliceSource(sorted), part)
}

// sortExternal externally sorts the raw batch file and writes the final
// merge pass as the partition.
func (s *Store) sortExternal(rawName string, part *Partition) (*Summary, error) {
	src, cleanup, err := extsort.SortedStream(s.mdev, rawName, extsort.Config{
		MemElements: s.cfg.SortMemElements,
		TempPrefix:  fmt.Sprintf("sort-%06d", part.ID),
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	return s.writeRun(src, part)
}

// mergeLevel multi-way merges one level's run of partitions, oldest first,
// into a single partition one level up with a single sequential pass
// (Algorithm 3 lines 9-13), capturing the merged partition's summary
// in-flight.
//
// An input that steps backwards — a partition damaged on the device after it
// was written — fails the merge in the run writer: the output is aborted,
// nothing is retired, every input stays live and readable, and the level
// stays over κ, so the same error (ErrMergeIncomplete, naming the level's
// input files and the offending pair of values) comes back from each later
// install until the file is repaired.
func (s *Store) mergeLevel(run []*Summary) (*Summary, error) {
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
	merger, closeAll, err := extsort.OpenRuns(s.mdev, names)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	sum, err := s.writeRun(merger, merged)
	if err != nil {
		return nil, fmt.Errorf("partition: merging level %d %v: %w", first.Level, names, err)
	}
	return sum, nil
}

// Commit makes the store's current published state durable: any missing raw
// spills of sealed batches are (re)written, a data barrier guarantees every
// file the manifest will reference is on stable storage, the manifest is
// committed atomically from a consistent published snapshot, and a second
// barrier makes the commit itself durable. Only then do files superseded by
// this state become removable — and they are physically removed only once no
// pinned Version can still read them.
//
// Nothing else in the store commits: the engine calls Commit once per
// EndStep, once per background install, and at checkpoints. It is safe to
// call concurrently (the write path vs a maintenance worker); commits are
// serialized and the durable manifest sequence is monotone.
func (s *Store) Commit(manifestName string) error {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	for _, sb := range s.Pending() {
		if _, err := s.spillLocked(sb); err != nil {
			return err
		}
	}
	// The snapshot is taken BEFORE the data barrier: every file a published
	// version references was fully written before publish, so syncing after
	// the snapshot guarantees the manifest only ever references durable
	// data — even if a concurrent install publishes a newer version between
	// the snapshot and the barrier (that version's files ride the next
	// commit).
	s.vmu.Lock()
	m, seq := s.manifestSnapshotLocked()
	s.vmu.Unlock()
	if err := s.dev.Sync(); err != nil {
		return fmt.Errorf("partition: commit data barrier: %w", err)
	}
	if err := writeManifest(s.dev, manifestName, m); err != nil {
		return err
	}
	if err := s.dev.Sync(); err != nil {
		return fmt.Errorf("partition: commit manifest barrier: %w", err)
	}
	var reclaim []retiredFile
	s.vmu.Lock()
	if seq > s.committedSeq {
		s.committedSeq = seq
	}
	reclaim = s.takeReclaimableLocked()
	s.vmu.Unlock()
	s.removeRetired(reclaim)
	return nil
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
