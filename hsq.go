package hsq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/gk"
	"repro/internal/partition"
	"repro/internal/query"
)

// manifestName is the per-store manifest file (relative to the store's
// namespace on the device).
const manifestName = "MANIFEST.json"

// ErrClosed is returned by operations on a Stream or DB after Close, and on
// a Stream after its DropStream.
var ErrClosed = errors.New("hsq: closed")

// Options configures a DB. Epsilon, Kappa and the accuracy/behavior options
// apply to every stream the DB hosts, while Backend, Dir, CacheBlocks,
// BlockSize and SimulateDisk describe the one shared device all streams
// multiplex. Epsilon is always required; Dir is required for the file
// backend. Every other field has a sensible default matching the paper's
// experimental setup.
type Options struct {
	// Epsilon is the approximation parameter ε ∈ (0,1): accurate queries
	// return elements whose rank errs by at most ε·m where m is the current
	// stream size (Theorem 2).
	Epsilon float64
	// Kappa is the merge threshold κ ≥ 2 (default 10, the paper's default).
	Kappa int
	// Backend selects the warehouse storage backend: "file" (default, a
	// directory of flat files rooted at Dir) or "mem" (heap-resident, for
	// tests, benchmarks and cache simulation; state dies with the process).
	Backend string
	// Device, when non-nil, is a pre-constructed storage backend that
	// overrides Backend and Dir — the hook simulation harnesses use to run
	// a DB over an instrumented backend (e.g. the deterministic crash
	// simulator in internal/disk). Most callers should leave it nil and use
	// Backend/Dir.
	Device disk.Backend
	// Dir is the directory backing the on-disk warehouse. Required for the
	// file backend; ignored by "mem".
	Dir string
	// CacheBlocks, when positive, installs a sharded LRU block cache of
	// that many blocks between the engine and the backend. Cached random
	// reads cost no disk access: they are reported as CacheHits instead of
	// RandReads in IOStats and QueryStats.
	CacheBlocks int
	// BlockSize is the disk block size in bytes (default 100 KB, the
	// paper's B).
	BlockSize int
	// SortMemElements bounds the memory used when sorting a batch; larger
	// batches use external sort (default 1M elements).
	SortMemElements int
	// NoBlockPin disables the §2.4 optimization that pins a partition's
	// final block in memory during a query.
	NoBlockPin bool
	// ProbeMemoEntries bounds the per-snapshot rank-probe memo: each
	// immutable store version caches up to this many bisection probes, so a
	// repeated query against an unchanged snapshot (the dashboard re-poll
	// pattern) resolves without touching the store at all — hits are
	// reported as QueryStats.MemoHits. Entries never go stale: they die
	// with their version. 0 selects the default (4096); negative disables
	// memoization.
	ProbeMemoEntries int
	// SimulateDisk injects per-block latency so wall-clock timings track
	// I/O counts even when the OS page cache hides the real device:
	// "" (off, default), "hdd" (the paper's ~1 ms random access) or "ssd".
	SimulateDisk string

	// Maintenance selects who installs the steps EndStep seals (sort,
	// level-0 partition, κ-way merges): "sync" (the EndStep caller, before it
	// returns — the default), "async" (the DB-wide background scheduler) or
	// "manual" (nobody, until SyncMaintenance). See the package docs'
	// "Concurrency model".
	Maintenance string
	// MaxPendingSteps bounds how many sealed steps may await background
	// installation per stream before EndStep blocks (backpressure). Setting
	// it > 0 with Maintenance unset selects "async"; in async mode 0 means
	// the default bound (4). The other modes have no bound.
	MaxPendingSteps int
	// MaintenanceWorkers sizes the async scheduler's worker pool, shared by
	// all streams of a DB (default 2).
	MaintenanceWorkers int

	// MaxHydratedStreams bounds how many of a DB's registered streams may
	// hold a hydrated (memory-resident) engine at once; 0 means unlimited.
	// Streams beyond the bound are sealed — maintenance drained, manifest
	// durably committed — and evicted in least-recently-used order, then
	// rehydrated transparently on their next touch. The bound is a target,
	// not a hard cap: streams that cannot be sealed without losing state
	// (an in-flight operation, a non-empty observe buffer, a sealed
	// maintenance backlog still draining) stay resident until they quiesce.
	MaxHydratedStreams int
}

func (c *Options) withDefaults() (Options, error) {
	out := *c
	// Epsilon/Kappa ranges are validated by the same predicates the
	// partition store applies to its derived parameters — one source of
	// truth for both layers (internal/partition/validate.go).
	if err := partition.ValidateEpsilon(out.Epsilon); err != nil {
		return out, fmt.Errorf("hsq: %w", err)
	}
	if out.Kappa == 0 {
		out.Kappa = 10
	}
	if err := partition.ValidateKappa(out.Kappa); err != nil {
		return out, fmt.Errorf("hsq: %w", err)
	}
	if out.Device == nil && out.Dir == "" && (out.Backend == "" || out.Backend == "file") {
		return out, fmt.Errorf("hsq: Dir is required for the file backend")
	}
	if out.CacheBlocks < 0 {
		return out, fmt.Errorf("hsq: CacheBlocks must be >= 0, got %d", out.CacheBlocks)
	}
	if out.BlockSize == 0 {
		out.BlockSize = disk.DefaultBlockSize
	}
	if out.SortMemElements == 0 {
		out.SortMemElements = 1 << 20
	}
	if out.ProbeMemoEntries == 0 {
		out.ProbeMemoEntries = 4096
	}
	switch out.Maintenance {
	case "":
		if out.MaxPendingSteps > 0 {
			out.Maintenance = MaintenanceAsync
		} else {
			out.Maintenance = MaintenanceSync
		}
	case MaintenanceSync, MaintenanceAsync, MaintenanceManual:
	default:
		return out, fmt.Errorf("hsq: unknown Maintenance mode %q (want %q, %q or %q)",
			out.Maintenance, MaintenanceSync, MaintenanceAsync, MaintenanceManual)
	}
	if out.MaxPendingSteps < 0 {
		return out, fmt.Errorf("hsq: MaxPendingSteps must be >= 0, got %d", out.MaxPendingSteps)
	}
	if out.Maintenance == MaintenanceAsync && out.MaxPendingSteps == 0 {
		out.MaxPendingSteps = 4
	}
	if out.MaintenanceWorkers <= 0 {
		out.MaintenanceWorkers = 2
	}
	if out.MaxHydratedStreams < 0 {
		return out, fmt.Errorf("hsq: MaxHydratedStreams must be >= 0, got %d", out.MaxHydratedStreams)
	}
	return out, nil
}

// The counter sets a stream reports are declared once, by the layer that
// fills them, and re-exported here.

// IOStats is the warehouse device's block-level I/O counters (disk.Stats):
// per stream (Stream.DiskStats), device-wide (DB.DiskStats), per update
// phase (UpdateStats) and maintenance-attributed (MaintenanceStats.MaintIO).
// RandReads counts only reads that reached the storage backend; random
// probes absorbed by the block cache appear as CacheHits. Total counts block
// accesses; Sub and Add difference and sum snapshots.
type IOStats = disk.Stats

// UpdateStats reports the cost of one EndStep, split into the paper's four
// phases (Figure 6): loading the raw batch (the seal's spill), sorting it
// into a level-0 partition, merging overflowing levels, and summary
// maintenance. The last three are the install: they are filled in when the
// EndStep caller ran it (synchronous maintenance) and zero when the step was
// left sealed for the scheduler or SyncMaintenance, whose installs are
// accounted in MaintenanceStats. The commit's barriers belong to no phase.
type UpdateStats = partition.UpdateBreakdown

// QueryStats reports the cost of one accurate query: bisection probes, the
// random reads that reached the backend, block-cache hits, blocks skipped
// from their headers, probe-memo hits (see Options.ProbeMemoEntries; like
// cache hits and skips they spend no MaxReads budget), the Algorithm 7
// filters, whether a MaxReads budget truncated the search, and the
// wall-clock Elapsed.
type QueryStats = core.QueryCost

// Request is one read of a Stream: the targets, the scope, and
// which of the paper's two read algorithms answers them (the package doc's
// "Reading" table maps each field to the paper and its error bound). At
// most one of Phis, Ranks and Values carries targets (none is a no-op).
type Request struct {
	// Phis asks for φ-quantiles: for each φ in (0, 1], the element of rank
	// ⌈φ·N⌉. All targets of one request resolve in a single shared
	// bisection sweep over one snapshot — k targets cost about
	// log(filter range) + k probes, not k bisections (the "p50/p95/p99"
	// dashboard pattern).
	Phis []float64
	// Ranks asks for the elements at the given ranks of the scope.
	Ranks []int64
	// Values asks the inverse question: for each value v, the number of
	// elements ≤ v. Installed partitions are counted exactly (one
	// block-granular binary search each, no combined summary is built); the
	// stream side contributes a summary estimate, so the error is at most
	// ~ε₂ times the stream-side mass. With Quick it is O(ε·N).
	Values []int64
	// Window, when positive, restricts the scope to the current stream plus
	// the most recent Window historical time steps; it must be one of
	// AvailableWindows. Zero is the full history.
	Window int
	// MaxReads, when positive, is one budget of random block reads for the
	// request's whole bisection sweep. Once it is spent the search stops:
	// targets unresolved by then are answered from the in-memory summaries
	// alone and Stats.Truncated is set — trading accuracy for disk accesses.
	// Only reads that reach the storage backend spend budget; block-cache
	// hits, skipped blocks and probe-memo hits are the absence of an access
	// and are free. Rank-of-value targets read at most one block per
	// partition and are not budgeted.
	MaxReads int
	// Quick answers from the in-memory summaries only.
	Quick bool
}

// Answer is the reply to one Request.
type Answer struct {
	// Values is positionally aligned with the request's targets: elements
	// for Phis and Ranks, ranks for Values.
	Values []int64
	// N is the size of the scope the answer was computed over, taken from
	// the same snapshot as Values.
	N int64
	// Stats is the disk-side cost; zero for a Quick request.
	Stats QueryStats
}

// MemoryUsage breaks down a stream's summary memory (Observation 1).
type MemoryUsage struct {
	// HistBytes is the historical summary HS (Lemma 8).
	HistBytes int64
	// StreamBytes is the live GK sketch (Lemma 9).
	StreamBytes int64
	// StreamPeakBytes is the GK sketch's high-water mark this time step.
	StreamPeakBytes int64
	// PendingBytes buffers sealed-but-uninstalled batches (raw data plus
	// frozen sketches): zero once every sealed step is installed, bounded
	// by MaxPendingSteps batches under the async scheduler.
	PendingBytes int64
}

// Total returns the combined live footprint.
func (m MemoryUsage) Total() int64 { return m.HistBytes + m.StreamBytes + m.PendingBytes }

// engine is the memory-resident core of one hydrated stream: it answers
// quantile queries over the union of the stream's historical warehouse and
// its current step. The DB hosts one per hydrated stream over a namespaced
// view of the shared device and owns that device and the scheduler; a Stream
// handle pins the engine for each call. It is safe for concurrent use.
//
// Reads are snapshot-isolated: a query briefly takes the engine lock to pin
// an immutable store version plus the frozen summaries of any
// sealed-but-uninstalled steps, then runs its disk probes entirely outside
// the lock — so queries proceed while background maintenance sorts and
// merges behind them, and an in-flight query keeps the partition files of
// its pinned version alive until it finishes. See the package docs'
// "Concurrency model" for the full locking contract.
type engine struct {
	cfg   Options
	eps1  float64
	eps2  float64
	dev   *disk.Manager
	store *partition.Store
	sched *scheduler // async mode; shared across a DB's streams

	// loadMu serializes the write path's step logic (EndStep, Close,
	// Destroy) without blocking observes or queries.
	loadMu sync.Mutex
	// maintMu serializes store build mutations — installs and merges. Lock
	// order: loadMu > maintMu > mu.
	maintMu sync.Mutex

	// mu guards the fast in-memory state below. Queries hold it only long
	// enough to pin a snapshot.
	mu       sync.RWMutex
	sketch   *gk.Sketch
	spare    *gk.Sketch // empty, buffers grown: the next cut's live sketch
	batch    []int64
	sealed   []*sealedPiece
	step     int
	closed   bool
	maintErr error
	wake     chan struct{}
	mstats   maintAccum
}

// newDevice builds the warehouse block device described by cfg: backend,
// block size, block cache and simulated latency profile.
func newDevice(cfg Options) (*disk.Manager, error) {
	b := cfg.Device
	if b == nil {
		var err error
		b, err = disk.OpenBackend(cfg.Backend, cfg.Dir)
		if err != nil {
			return nil, err
		}
	}
	dev, err := disk.NewManagerOn(b, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	if cfg.CacheBlocks > 0 {
		dev.SetCache(cfg.CacheBlocks)
	}
	// Partitions, sort runs and merge outputs are written columnar; batch
	// spills pin the raw format themselves. Readers auto-detect, so files
	// of either format written by earlier releases stay readable.
	if err := dev.SetBlockFormat(disk.FormatColumnar); err != nil {
		return nil, fmt.Errorf("hsq: %w", err)
	}
	if err := applyDiskProfile(dev, cfg.SimulateDisk); err != nil {
		return nil, err
	}
	return dev, nil
}

// storeConfig derives a stream's partition-store configuration from the DB
// options — the one place every knob is forwarded, shared by fresh and
// resumed stores so they cannot drift apart.
func storeConfig(cfg Options, eps1 float64, namespace string) partition.Config {
	return partition.Config{
		Kappa:            cfg.Kappa,
		Eps1:             eps1,
		SortMemElements:  cfg.SortMemElements,
		SpillBatches:     true,
		ProbeMemoEntries: cfg.ProbeMemoEntries,
		Namespace:        namespace,
	}
}

// newEngineOn builds (or, with resume, reopens) a stream's engine over its
// namespaced device view. full must have passed withDefaults. Resuming
// rebuilds partition summaries with one sequential scan each, garbage-
// collects files a half-finished install left behind, and re-installs
// steps that were sealed but not installed when the previous process died
// before the engine is returned, so a reopened stream always serves its
// full recovered prefix from partitions.
func newEngineOn(dev *disk.Manager, full Options, namespace string, resume bool) (*engine, error) {
	eps1 := full.Epsilon / 2
	eps2 := full.Epsilon / 4
	pcfg := storeConfig(full, eps1, namespace)
	var (
		store *partition.Store
		err   error
	)
	if resume {
		store, err = partition.LoadStore(dev, manifestName, pcfg)
	} else {
		store, err = partition.NewStore(dev, pcfg)
		if err == nil {
			// A stream opening fresh may still find debris from a crash
			// before its first durable commit (the stream was in the DB
			// directory but never wrote a manifest). Nothing is referenced
			// yet, so everything matching the store's file patterns is an
			// orphan.
			if _, gcErr := partition.CollectOrphans(dev, nil); gcErr != nil {
				return nil, gcErr
			}
		}
	}
	if err != nil {
		return nil, err
	}
	// The GK sketch runs at ε₂/2 so the extracted stream summary satisfies
	// Lemma 1's one-sided band; see internal/gk.
	sketch, err := gk.New(eps2 / 2)
	if err != nil {
		return nil, err
	}
	e := &engine{
		cfg: full, eps1: eps1, eps2: eps2,
		dev: dev, store: store, sketch: sketch,
		wake: make(chan struct{}),
	}
	e.step = store.Steps()
	// Fold sealed-but-uninstalled steps from the recovered manifest back into
	// partitions before serving: their frozen summaries died with the old
	// process, so the spills are the only queryable form.
	for store.PendingSteps() > 0 {
		if _, err := e.runMaintenanceOnce(); err != nil {
			return nil, fmt.Errorf("hsq: recover sealed step: %w", err)
		}
	}
	return e, nil
}

// observe feeds one stream element (StreamUpdate, Algorithm 4): it is both
// summarized in the GK sketch and buffered for end-of-step loading.
func (e *engine) observe(v int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.sketch.Insert(v)
	e.batch = append(e.batch, v)
	return nil
}

// observeSlice feeds a slice of elements under one lock acquisition.
func (e *engine) observeSlice(vs []int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	for _, v := range vs {
		e.sketch.Insert(v)
	}
	e.batch = append(e.batch, vs...)
	return nil
}

// StreamCount returns m, the number of elements in the current (unloaded)
// stream.
func (e *engine) StreamCount() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sketch.Count()
}

// HistCount returns n, the number of elements in the warehouse — installed
// partitions plus steps sealed by EndStep and awaiting background
// installation.
func (e *engine) HistCount() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.TotalCount()
}

// TotalCount returns N = n + m.
func (e *engine) TotalCount() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.TotalCount() + e.sketch.Count()
}

// Steps returns the number of completed time steps.
func (e *engine) Steps() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.step
}

// PartitionCount returns the number of live partitions in HD.
func (e *engine) PartitionCount() int {
	return e.store.PartitionCount()
}

// endStep is Stream.EndStepCtx on the pinned engine: cut, seal, install (by
// whoever the maintenance mode names), commit. ctx aborts only the
// backpressure wait.
func (e *engine) endStep(ctx context.Context) (UpdateStats, error) {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	// Backpressure is enforced while holding the seal lock: concurrent
	// EndStep callers serialize here and each re-validates the bound, so
	// the sealed backlog can never exceed MaxPendingSteps. Installs need no
	// engine lock we hold, so the wait always resolves (or surfaces the
	// maintenance error / cancellation).
	if err := e.waitBackpressure(ctx); err != nil {
		return UpdateStats{}, err
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return UpdateStats{}, ErrClosed
	}
	if len(e.batch) == 0 {
		e.mu.Unlock()
		return UpdateStats{}, nil
	}
	data := e.batch
	e.batch = nil
	e.step++
	step := e.step
	piece := &sealedPiece{step: step, count: e.sketch.Count(), sketch: e.sketch}
	e.sketch, e.spare = e.spare, nil
	if e.sketch == nil {
		e.sketch = gk.MustNew(piece.sketch.Epsilon())
	}
	e.sealed = append(e.sealed, piece)
	e.mu.Unlock()

	us, sealedStep, err := e.store.Seal(data)
	switch {
	case err != nil:
		err = fmt.Errorf("hsq: seal step %d: %w", step, err)
	case sealedStep != step:
		err = fmt.Errorf("hsq: engine at step %d but store sealed step %d", step, sealedStep)
	default:
		// The spill is written, so nothing will read data again once the
		// install has sorted its copy: the install may hand the buffer back.
		e.mu.Lock()
		piece.buf = data
		e.mu.Unlock()
	}

	// The one thing the modes differ in: who drains the sealed queue.
	switch e.cfg.Maintenance {
	case MaintenanceSync:
		// Oldest first, so a step whose install failed earlier is retried
		// before this one; the stats left standing are this step's own
		// (an install's breakdown starts from its seal's load phase).
		for err == nil && e.store.PendingSteps() > 0 {
			if us, _, err = e.installOne(); err != nil {
				err = fmt.Errorf("hsq: end step %d: %w", step, err)
			}
		}
	case MaintenanceAsync:
		e.sched.enqueue(e)
	}

	if cerr := e.store.Commit(manifestName); cerr != nil && err == nil {
		err = fmt.Errorf("hsq: commit step %d: %w", step, cerr)
	}
	return us, err
}

// waitBackpressure blocks while the stream's sealed backlog is at the
// MaxPendingSteps bound, waking on maintenance progress. ctx aborts the
// wait.
func (e *engine) waitBackpressure(ctx context.Context) error {
	if e.cfg.Maintenance != MaintenanceAsync {
		return nil
	}
	max := e.cfg.MaxPendingSteps
	waited := false
	for {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return ErrClosed
		}
		if err := e.maintErr; err != nil {
			e.mu.Unlock()
			return maintFailed(err)
		}
		if len(e.sealed) < max {
			e.mu.Unlock()
			return nil
		}
		ch := e.wake
		if !waited {
			// One blocked EndStep counts once, however many wakeups it takes.
			e.mstats.bpWaits++
			waited = true
		}
		e.mu.Unlock()
		e.sched.enqueue(e)
		t0 := time.Now()
		select {
		case <-ch:
		case <-ctx.Done():
			e.addBackpressureTime(time.Since(t0))
			return ctx.Err()
		}
		e.addBackpressureTime(time.Since(t0))
	}
}

func (e *engine) addBackpressureTime(d time.Duration) {
	e.mu.Lock()
	e.mstats.bpTime += d
	e.mu.Unlock()
}

// applyDiskProfile installs a simulated latency profile on the device.
func applyDiskProfile(dev *disk.Manager, profile string) error {
	switch profile {
	case "":
		return nil
	case "hdd":
		dev.SetLatency(disk.HDD)
	case "ssd":
		dev.SetLatency(disk.SSD)
	default:
		return fmt.Errorf("hsq: unknown disk profile %q (want \"\", \"hdd\" or \"ssd\")", profile)
	}
	return nil
}

// querySnap is one snapshot-isolated view of the engine: an immutable,
// pinned store version plus the memory-resident stream pieces (frozen
// summaries of sealed steps awaiting installation, then the live sketch's
// summary). Everything a query reads after the snapshot is immutable, so
// the whole disk search runs without any engine lock; release returns the
// pin so reclaimed partitions can be deleted.
type querySnap struct {
	ver    *partition.Version
	memo   *partition.ProbeMemo // the version's; nil once scope narrows sums
	sums   []*partition.Summary // installed partitions, oldest first
	pieces []core.StreamPiece
	sealed int   // number of sealed (pending-install) pieces, oldest first
	m      int64 // live stream count
	n      int64 // grand total across version, sealed pieces and stream
}

func (s *querySnap) release() { s.ver.Release() }

// snapshot pins the engine's current state for one query. The engine lock
// is held only for the pin and the sketch-summary extraction.
func (e *engine) snapshot() (*querySnap, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	s := &querySnap{ver: e.store.Pin()}
	s.sums, s.memo = s.ver.Entries(), s.ver.Memo()
	s.n = s.ver.TotalCount()
	s.pieces = make([]core.StreamPiece, 0, len(e.sealed)+1)
	// Only pieces the pinned version has not installed yet: an install
	// publishes its version before the engine retires the frozen summary,
	// and filtering on the version's own step count keeps the snapshot
	// exact under every interleaving — a step is covered by its partition
	// or its frozen summary, never both.
	installed := s.ver.InstalledSteps()
	for _, p := range e.sealed {
		if p.step <= installed {
			continue
		}
		s.pieces = append(s.pieces, core.StreamPiece{SS: p.summary(e.eps2), M: p.count})
		s.n += p.count
	}
	s.sealed = len(s.pieces)
	s.m = e.sketch.Count()
	if s.m > 0 {
		s.pieces = append(s.pieces, core.StreamPiece{SS: core.StreamSummary(e.sketch, e.eps2), M: s.m})
		s.n += s.m
	}
	return s, nil
}

// Query is Stream.Query on the pinned engine — the package's single read
// path. It pins one snapshot, selects the scope (full history or a
// partition-aligned window), resolves the targets to ranks and dispatches to
// the quick answer, the rank-of-value probe or the shared bisection sweep.
func (e *engine) Query(ctx context.Context, req Request) (Answer, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	s, err := e.snapshot()
	if err != nil {
		return Answer{}, err
	}
	defer s.release()
	if err := s.scope(query.Scope{Window: req.Window}); err != nil {
		return Answer{}, err
	}
	if req.Quick {
		return QuickAnswer(core.BuildPieces(s.sums, s.pieces, e.eps1, e.eps2), req)
	}
	t0 := time.Now()
	rs, err := req.ranks(s.n)
	if err != nil {
		return Answer{}, err
	}
	ans := Answer{N: s.n}
	if len(req.Values) > 0 {
		ans.Values, ans.Stats, err = core.RankOfValues(s.sums, s.pieces, e.eps2, req.Values, !e.cfg.NoBlockPin)
	} else {
		c := core.BuildPieces(s.sums, s.pieces, e.eps1, e.eps2)
		ans.Values, ans.Stats, err = core.AccurateMultiQueryOpts(c, e.cfg.Epsilon, rs, core.QueryOptions{
			PinBlocks: !e.cfg.NoBlockPin,
			MaxReads:  req.MaxReads,
			Interrupt: ctx.Err,
			Memo:      s.memo,
		})
	}
	if err != nil {
		return Answer{}, err
	}
	ans.Stats.Elapsed = time.Since(t0)
	return ans, nil
}

// QuickAnswer answers a request from a combined summary alone (Algorithm 5
// for quantile targets, the L/U midpoint for rank-of-value targets): the
// Quick branch of Query, and the whole of a cluster coordinator's answer
// for a stream another shard owns, whose fetched shard summary is all it
// has. The scope is the summary's; req.Window and req.MaxReads do not
// apply.
func QuickAnswer(c *core.Combined, req Request) (Answer, error) {
	ans := Answer{N: c.N()}
	rs, err := req.ranks(ans.N)
	if err != nil {
		return Answer{}, err
	}
	for _, v := range req.Values {
		ans.Values = append(ans.Values, c.QuickRank(v))
	}
	for _, r := range rs {
		v, err := c.QuickQuery(r)
		if err != nil {
			return Answer{}, err
		}
		ans.Values = append(ans.Values, v)
	}
	return ans, nil
}

// ranks resolves the request's quantile targets to ranks in a scope of n
// elements — Phis through core.RankTarget, Ranks as given, nil for a
// rank-of-value request — and rejects a request that mixes target kinds or
// reads an empty scope.
func (req Request) ranks(n int64) ([]int64, error) {
	p, r, v := len(req.Phis) > 0, len(req.Ranks) > 0, len(req.Values) > 0
	if p && r || p && v || r && v {
		return nil, errors.New("hsq: a request carries one of Phis, Ranks and Values, not several")
	}
	rs := req.Ranks
	if p {
		rs = make([]int64, len(req.Phis))
		for i, phi := range req.Phis {
			var err error
			if rs[i], err = core.RankTarget(phi, n); err != nil {
				return nil, err
			}
		}
	}
	if n == 0 {
		return nil, errors.New("hsq: query on empty dataset")
	}
	return rs, nil
}

// one unpacks a single-target answer for the Quantile and Rank
// conveniences.
func one(a Answer, err error) (int64, QueryStats, error) {
	if err != nil {
		return 0, QueryStats{}, err
	}
	return a.Values[0], a.Stats, nil
}

// AvailableWindows is Stream.AvailableWindows on the pinned engine.
func (e *engine) AvailableWindows() []int {
	s, err := e.snapshot()
	if err != nil {
		return nil
	}
	defer s.release()
	// A window is answerable iff it starts on a span boundary (the selector's
	// rule): one size per span, newest span first.
	bounds := append([]int{0}, s.ends()...)
	var out []int
	for i := len(bounds) - 2; i >= 0; i-- {
		out = append(out, bounds[len(bounds)-1]-bounds[i])
	}
	return out
}

// MemoryUsage returns the current summary footprint (Observation 1).
func (e *engine) MemoryUsage() MemoryUsage {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var pendingBytes int64
	for _, p := range e.sealed {
		pendingBytes += p.sketch.MemoryBytes()
	}
	pendingBytes += e.store.PendingBytes()
	return MemoryUsage{
		HistBytes:       e.store.MemoryBytes(),
		StreamBytes:     e.sketch.MemoryBytes(),
		StreamPeakBytes: e.sketch.MaxMemoryBytes(),
		PendingBytes:    pendingBytes,
	}
}

// ProbeMemoStats is a stream's rank-probe memo counters (see
// Options.ProbeMemoEntries): hits, misses, stores and evictions across every
// store version so far, plus the current version's occupancy.
type ProbeMemoStats = partition.MemoStats

// Checkpoint durably persists the stream's warehouse layout (DB.Checkpoint
// calls it per hydrated stream). EndStep already commits every completed
// step (seals included), so it is only needed to retry after a failed commit
// or as an explicit barrier. The in-flight stream is volatile by design (it
// will be replayed or lost, exactly as a DSMS would); only historical state
// — including sealed steps awaiting installation — is durable.
func (e *engine) Checkpoint() error {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	return e.store.Commit(manifestName)
}

// Close drains background maintenance, checkpoints the engine and releases
// it — how the DB evicts a stream and seals it at DB.Close: sealed steps are
// installed and committed, the manifest is persisted, and the engine
// transitions to a terminal state in which every subsequent mutation or
// query fails with ErrClosed. The device and the scheduler are the DB's.
// Close is idempotent.
func (e *engine) Close() error {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil
	}
	if err := e.SyncMaintenance(); err != nil {
		return err
	}
	if err := e.store.Commit(manifestName); err != nil {
		return err
	}
	e.mu.Lock()
	e.closed = true
	e.wakeLocked()
	e.mu.Unlock()
	// No new pins are possible past closed; wait out in-flight queries so
	// the backend is never torn down under their reads.
	e.store.DrainPins()
	return nil
}

// Destroy removes all of the stream's on-disk state (DB.DropStream), including
// spills of steps awaiting installation. The engine is unusable afterwards
// (it behaves as closed); there is no state left to checkpoint.
func (e *engine) Destroy() error {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	e.mu.Lock()
	e.closed = true
	e.sealed = nil
	e.wakeLocked()
	e.mu.Unlock()
	// Queries that pinned a version before we closed may still be probing
	// partition files; wait them out before deleting anything.
	e.store.DrainPins()
	if err := e.store.Destroy(); err != nil {
		return err
	}
	if e.dev.Exists(manifestName) {
		if err := e.dev.Remove(manifestName); err != nil {
			return err
		}
	}
	return nil
}

// LevelInfo describes one level of a stream's on-disk store.
type LevelInfo = partition.LevelInfo
