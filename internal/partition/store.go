package partition

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/disk"
	"repro/internal/extsort"
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
// overflowing levels, and summary maintenance. Seal fills the load phase and
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

// entry pairs a partition with its in-memory summary.
type entry struct {
	part *Partition
	sum  *Summary
}

// SealedBatch is one time step's batch that has been sealed — its step
// number assigned and (normally) its raw data spilled — but not yet sorted
// and installed as a level-0 partition. Sealed batches are the hand-off unit
// between Seal and InstallOne, whoever calls the latter.
type SealedBatch struct {
	// ID is the batch's store-unique id; it names the raw spill file.
	ID int64 `json:"id"`
	// Name is the raw spill file, or "" while the spill has not succeeded
	// yet (Commit retries it before writing any manifest that would need
	// it).
	Name string `json:"name"`
	// Count is the number of elements.
	Count int64 `json:"count"`
	// Step is the time step the batch closes.
	Step int `json:"step"`

	// data buffers the batch in memory until it is installed; nil after a
	// restart (the raw file is then the only copy).
	data []int64
	// load is the breakdown Seal measured, the start of InstallOne's.
	load UpdateBreakdown
}

// Store is HD + HS: the on-disk leveled partition structure together with
// per-partition in-memory summaries.
//
// The store separates three kinds of state:
//
//   - Build state (levels, buildRetired): the mutable leveled structure that
//     installs and merges edit. Exactly one mutator may touch it at a time —
//     the engine serializes installers with its maintenance lock. Queries
//     never read it.
//   - Published state (cur, live, retired, pending, nextID, steps; guarded
//     by vmu): the immutable Version chain queries pin, plus the sealed
//     batch queue and the id/step counters. Safe for concurrent use.
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

	// Build state — single mutator only.
	levels       [][]entry
	buildRetired []string

	// Published state.
	vmu          sync.Mutex
	cur          *Version
	live         []*Version
	retired      []retiredFile
	committedSeq int64
	pending      []*SealedBatch
	nextID       int64
	steps        int // sealed time steps (installed + pending)

	// cmu serializes manifest commits (the write path's can race a
	// maintenance worker's) so the durable manifest sequence is monotone.
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

// Kappa returns the merge threshold.
func (s *Store) Kappa() int { return s.cfg.Kappa }

// Eps1 returns the historical summary parameter.
func (s *Store) Eps1() float64 { return s.cfg.Eps1 }

// Beta1 returns the per-partition summary length.
func (s *Store) Beta1() int { return s.beta1 }

// TotalCount returns n, the number of historical elements — installed
// partitions plus sealed-but-uninstalled batches.
func (s *Store) TotalCount() int64 {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	n := s.cur.total
	for _, sb := range s.pending {
		n += sb.Count
	}
	return n
}

// Steps returns the number of time steps sealed so far (installed or
// pending).
func (s *Store) Steps() int {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	return s.steps
}

// PendingSteps returns the number of sealed batches awaiting installation.
func (s *Store) PendingSteps() int {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	return len(s.pending)
}

// PendingElements returns the total element count across sealed batches
// awaiting installation — the stream's merge debt in elements.
func (s *Store) PendingElements() int64 {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	var n int64
	for _, sb := range s.pending {
		n += sb.Count
	}
	return n
}

// PendingBytes returns the heap footprint of batch data buffered until
// installation.
func (s *Store) PendingBytes() int64 {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	var n int64
	for _, sb := range s.pending {
		n += int64(len(sb.data)) * 8
	}
	return n
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

// AddBatch loads one time step's batch into the warehouse in one call: Seal
// then InstallOne, for callers that are the store's only writer (layer
// benchmarks, tests). step must be the next time step. Like its two halves
// it commits nothing.
func (s *Store) AddBatch(data []int64, step int) (UpdateBreakdown, error) {
	if at := s.Steps(); step != at+1 {
		return UpdateBreakdown{}, fmt.Errorf("partition: batch for step %d, store is at step %d", step, at)
	}
	if _, _, err := s.Seal(data); err != nil {
		return UpdateBreakdown{}, err
	}
	bd, _, err := s.InstallOne()
	return bd, err
}

// spill writes a sealed batch's raw file and records its name. Spills are
// unsorted arrival-order batches, so they pin FormatRaw regardless of the
// device default: delta frames only pay off on sorted runs, and recovery
// wants the dumbest possible format to replay. No two goroutines may spill
// the same batch: Seal spills before the batch is queued, every later spill
// (the repair of one that failed) runs under cmu. It returns the spill's
// own I/O, which concurrent queries and installs on the device do not touch.
func (s *Store) spill(sb *SealedBatch) (disk.Stats, error) {
	name := fmt.Sprintf("batch-raw-%06d.dat", sb.ID)
	io, err := s.writeRaw(name, sb.data)
	if err != nil {
		return io, fmt.Errorf("partition: spill sealed batch %d: %w", sb.ID, err)
	}
	s.vmu.Lock()
	sb.Name = name
	s.vmu.Unlock()
	return io, nil
}

func (s *Store) writeRaw(name string, data []int64) (disk.Stats, error) {
	w, err := s.dev.CreateFormat(name, disk.FormatRaw)
	if err != nil {
		return disk.Stats{}, err
	}
	if err := w.AppendSlice(data); err != nil {
		w.Abort()
		return w.Stats(), err
	}
	err = w.Close()
	return w.Stats(), err
}

// installEntry appends a fresh level-0 entry to the build state.
func (s *Store) installEntry(e entry) {
	if len(s.levels) == 0 {
		s.levels = append(s.levels, nil)
	}
	s.levels[0] = append(s.levels[0], e)
}

// cascadeMerges merges every level holding more than κ partitions
// (Algorithm 3 lines 9-13), returning how many merges ran.
func (s *Store) cascadeMerges() (int, error) {
	merges := 0
	for lvl := 0; lvl < len(s.levels); lvl++ {
		if len(s.levels[lvl]) <= s.cfg.Kappa {
			continue
		}
		if err := s.mergeLevel(lvl); err != nil {
			return merges, err
		}
		merges++
	}
	return merges, nil
}

// Seal closes one time step without installing it: the batch is spilled raw
// (with SpillBatches — the paper's "load" phase) and queued under the next
// step number, which Seal returns. From here the step is counted; it is
// durable once the caller's next Commit returns nil, after which a reopened
// store re-installs it from the spill. A failed spill still seals the step
// — it exists in memory and will be installed — and Commit retries the
// spill before it writes any manifest that needs it.
//
// The breakdown Seal returns is the step's load phase (Load, LoadIO) and
// BatchSize — the one place the spill is measured; InstallOne's breakdown
// of the step starts from it.
//
// Seal may run concurrently with InstallOne and Commit; only one Seal at a
// time (the engine's write path serializes end-of-steps).
func (s *Store) Seal(data []int64) (UpdateBreakdown, int, error) {
	if len(data) == 0 {
		return UpdateBreakdown{}, 0, fmt.Errorf("partition: sealing empty batch")
	}
	sb := &SealedBatch{ID: s.allocID(), Count: int64(len(data)), data: data}
	sb.load.BatchSize = sb.Count
	var err error
	if s.cfg.SpillBatches {
		t0 := time.Now()
		sb.load.LoadIO, err = s.spill(sb)
		sb.load.Load = time.Since(t0)
	}
	s.vmu.Lock()
	s.steps++
	sb.Step = s.steps
	s.pending = append(s.pending, sb)
	s.vmu.Unlock()
	return sb.load, sb.Step, err
}

// spillPendingLocked writes the raw file of every sealed batch that does
// not have one yet. Caller holds cmu.
func (s *Store) spillPendingLocked() error {
	s.vmu.Lock()
	todo := make([]*SealedBatch, 0, len(s.pending))
	for _, sb := range s.pending {
		if sb.Name == "" {
			todo = append(todo, sb)
		}
	}
	s.vmu.Unlock()
	for _, sb := range todo {
		if sb.data == nil {
			return fmt.Errorf("partition: sealed step %d has neither spill nor data", sb.Step)
		}
		if _, err := s.spill(sb); err != nil {
			return err
		}
	}
	return nil
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
	if len(s.pending) == 0 {
		s.vmu.Unlock()
		return UpdateBreakdown{}, 0, nil
	}
	sb := s.pending[0]
	s.vmu.Unlock()
	bd := sb.load

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
	s.vmu.Lock()
	rawName := sb.Name
	s.vmu.Unlock()
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
		// Large batch: external sort from the spill. Sealing normally wrote
		// it already; repair a failed spill first (under the commit lock,
		// which owns spill repair).
		if rawName == "" {
			s.cmu.Lock()
			serr := s.spillPendingLocked()
			s.cmu.Unlock()
			if serr != nil {
				return bd, 0, serr
			}
			s.vmu.Lock()
			rawName = sb.Name
			s.vmu.Unlock()
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
	s.installEntry(entry{part, sum})
	v := s.publish(true)
	// Retire the consumed spill AFTER publish, re-reading its name under
	// vmu: a concurrent Commit may have repaired a spill that failed at
	// seal time, and checking earlier could miss (and so leak) the file it
	// wrote. No version references spills, so the new sequence number makes
	// it removable as soon as a manifest of this version commits.
	s.vmu.Lock()
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
	if merges > 0 {
		s.publish(false)
	}
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

// mergeLevel multi-way merges every partition at level lvl into a single
// partition at lvl+1 with a single sequential pass (Algorithm 3 lines 9-13),
// capturing the merged partition's summary in-flight.
//
// An input that steps backwards — a partition damaged on the device after it
// was written — fails the merge in the run writer: the output is aborted,
// nothing is retired, every input stays live and readable, and the level
// stays over κ, so the same error (ErrMergeIncomplete, naming the level's
// input files and the offending pair of values) comes back from each later
// install until the file is repaired.
func (s *Store) mergeLevel(lvl int) error {
	group := s.levels[lvl]
	if len(group) == 0 {
		return nil
	}
	id := s.allocID()
	merged := &Partition{
		ID:        id,
		Level:     lvl + 1,
		StartStep: group[0].part.StartStep,
		EndStep:   group[0].part.EndStep,
		dev:       s.dev,
		name:      fmt.Sprintf("part-%06d.dat", id),
	}
	names := make([]string, 0, len(group))
	for _, e := range group {
		names = append(names, e.part.name)
		merged.Count += e.part.Count
		merged.StartStep = min(merged.StartStep, e.part.StartStep)
		merged.EndStep = max(merged.EndStep, e.part.EndStep)
	}
	merger, closeAll, err := extsort.OpenRuns(s.mdev, names)
	if err != nil {
		return err
	}
	defer closeAll()
	sum, err := s.writeRun(merger, merged)
	if err != nil {
		return fmt.Errorf("partition: merging level %d %v: %w", lvl, names, err)
	}
	s.retireGroupAndInstall(lvl, group, merged, sum)
	return nil
}

// retireGroupAndInstall retires the merged-away inputs of level lvl
// (removed once a manifest without them is durable and no version pins
// them) and installs the merged partition at lvl+1 in chronological order.
func (s *Store) retireGroupAndInstall(lvl int, group []entry, merged *Partition, sum *Summary) {
	for _, e := range group {
		s.buildRetired = append(s.buildRetired, e.part.name)
	}
	s.levels[lvl] = nil
	if lvl+1 >= len(s.levels) {
		s.levels = append(s.levels, nil)
	}
	s.levels[lvl+1] = append(s.levels[lvl+1], entry{merged, sum})
	slices.SortFunc(s.levels[lvl+1], func(a, b entry) int {
		return a.part.StartStep - b.part.StartStep
	})
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
	if err := s.spillPendingLocked(); err != nil {
		return err
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
	if err := s.writeManifest(manifestName, m); err != nil {
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

// Destroy removes every partition file, raw spill and retired file. The
// store is unusable afterwards. The caller must guarantee no concurrent
// installs or pinned queries.
func (s *Store) Destroy() error {
	s.vmu.Lock()
	names := make([]string, 0, len(s.cur.entries)+len(s.retired)+len(s.pending))
	for _, e := range s.cur.entries {
		names = append(names, e.Part.name)
	}
	for _, rf := range s.retired {
		names = append(names, rf.name)
	}
	for _, sb := range s.pending {
		if sb.Name != "" {
			names = append(names, sb.Name)
		}
	}
	s.vmu.Unlock()
	for _, name := range names {
		if s.dev.Exists(name) {
			if err := s.dev.Remove(name); err != nil {
				return err
			}
		}
	}
	s.vmu.Lock()
	s.retired = nil
	s.pending = nil
	s.steps = 0
	s.cur = &Version{store: s, seq: s.cur.seq + 1, refs: 1}
	s.live = []*Version{s.cur}
	s.vmu.Unlock()
	s.levels = nil
	s.buildRetired = nil
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

// Describe returns a per-level summary of the current version's layout
// (level order ascending).
func (s *Store) Describe() []LevelInfo {
	v := s.Pin()
	defer v.Release()
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
