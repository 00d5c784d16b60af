package hsq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
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
// experimental setup. A step's sort memory is not an option: EndStep sorts
// the live step's new values in memory with one transient scratch of their
// size and merges them into a new sorted run, so a step of n values briefly
// holds 3n, and the sort does no device I/O.
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
	// NoBlockPin disables the §2.4 optimization that keeps, per partition,
	// the block a query's probe settled in (its checked frame) pinned for
	// the query's next probes, so a probe inside it fetches nothing.
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

	// Maintenance is ignored when it is "" or "sync" (MaintenanceSync) and
	// refused otherwise: every EndStep runs the merges its step makes due,
	// and there is no other schedule. The field stays so callers that name
	// "sync" compile.
	Maintenance string

	// MaxHydratedStreams bounds how many of a DB's registered streams may
	// hold a hydrated (memory-resident) engine at once; 0 means unlimited.
	// Streams beyond the bound are sealed — settled, manifest durably
	// committed — and evicted cheapest to bring back first, then
	// rehydrated transparently on their next touch. A stream's priority is
	// the DB's inflation value at its last touch plus its history, and each
	// eviction raises the inflation to
	// the victim's priority (GreedyDual): streams of equal size go in
	// least-recently-used order, and an idle large stream goes once the
	// evictions after its last touch add up past its size. The bound is a
	// target, not a hard cap: streams that cannot be sealed without losing
	// state (an in-flight operation, a non-empty observe buffer) stay
	// resident until they quiesce.
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
	if out.ProbeMemoEntries == 0 {
		out.ProbeMemoEntries = 4096
	}
	if out.Maintenance != "" && out.Maintenance != MaintenanceSync {
		return out, fmt.Errorf("hsq: Maintenance %q: async and manual maintenance were removed, every EndStep runs its own merges (leave it empty or %q)",
			out.Maintenance, MaintenanceSync)
	}
	if out.MaxHydratedStreams < 0 {
		return out, fmt.Errorf("hsq: MaxHydratedStreams must be >= 0, got %d", out.MaxHydratedStreams)
	}
	return out, nil
}

// The counter sets a stream reports are declared once, by the layer that
// fills them, and re-exported here.

// IOStats is the warehouse device's block-level I/O counters (disk.Stats):
// per stream (Stream.DiskStats), device-wide (DB.DiskStats) and per update
// phase (UpdateStats). RandReads counts only reads that reached the storage
// backend; random probes absorbed by the block cache appear as CacheHits.
// Total counts block accesses; Sub and Add difference and sum snapshots.
type IOStats = disk.Stats

// UpdateStats reports the cost of one EndStep, split into the paper's four
// phases (Figure 6): loading the step — the write of its level-0 partition,
// the step's one trip to the device — sorting it (CPU time: the cut sorts
// the step in memory, under the engine lock, and the sort does no I/O),
// merging overflowing levels,
// and summary maintenance. EndStep fills all four for its own step and the
// merges it makes due. A write or merge retried after a failure — at the
// start of the next EndStep, or by the barrier of SyncMaintenance,
// DB.Checkpoint and Close — counts only in StreamStatus's Installs and
// Merges. The commit's barriers belong to no phase.
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
	// elements ≤ v. The answer is exact: installed partitions are counted by
	// one block-granular binary search each (one cursor per partition for
	// the whole request, no combined summary is built), and the in-memory
	// steps value by value. With Quick it errs by at most ε·N/2.
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
	// HistBytes is the historical summary HS (Lemma 8) as held: 8 bytes an
	// entry, as positions are derived. Plan charges 16 (see its doc).
	HistBytes int64
	// StreamBytes is the live step as held: its sorted run, which reads
	// share, and the tail of values observed since, 8 bytes a value at
	// capacity. The paper keeps a GK sketch of Lemma 9's size instead; this
	// system keeps the step, which EndStep writes, so Lemma 9 describes only
	// PlannedStreamBytes.
	StreamBytes int64
	// PendingBytes is the sealed step as held — the buffer of the live
	// step's last run, which the store writes and reads share, at capacity
	// — while its level-0 write runs or after it failed until a retry
	// succeeds: at most one step, zero once its partition is published.
	PendingBytes int64
}

// Total returns the combined live footprint.
func (m MemoryUsage) Total() int64 { return m.HistBytes + m.StreamBytes + m.PendingBytes }

// engine is the memory-resident core of one hydrated stream: it answers
// quantile queries over the union of the stream's historical warehouse and
// its current step. The DB hosts one per hydrated stream over a namespaced
// view of the shared device and owns that device; a Stream handle pins the
// engine for each call. It is safe for concurrent use.
//
// The stream's history — installed partitions, then the sealed step whose
// level-0 write is running or failed, held as its sorted batch — is the
// store's published partition.Version; the engine holds the live step and
// the sealed step's piece. Reads are snapshot-isolated: a query briefly
// takes the engine lock to pin that version beside the in-memory steps'
// immutable pieces, then runs its disk probes entirely outside the lock —
// so queries proceed while EndStep writes and merges behind them, and an
// in-flight query keeps the partition files of its pinned version alive
// until it finishes. See the package docs'
// "Concurrency model" for the full locking contract.
type engine struct {
	cfg   Options
	eps1  float64
	dev   *disk.Manager
	store *partition.Store

	// loadMu serializes the write path — EndStep, the checkpoint barrier
	// (which retries a failed level-0 write or merge, and seals) and shut —
	// without blocking observes or queries: its holder is the stream's one
	// level-0 writer, its one merger and its one committer, and closed
	// changes only under it. Lock order: loadMu > mu.
	loadMu sync.Mutex

	// mu guards the fast in-memory state below. The live step is run, an
	// immutable whole piece that snapshots share, then tail, the values
	// observed since the last fold in arrival order: observe and
	// observeSlice append to tail, and a snapshot or the cut folds it into a
	// new run (fold). sealed is the run the cut sealed, the store's sealed
	// step, until settle installs it. Queries hold mu only long enough to
	// pin a snapshot.
	mu          sync.Mutex
	run, sealed core.StreamPiece
	tail        []int64
	closed      bool
	mstats      maintAccum
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
	// The device writes and reads columnar version 2 only: a partition in
	// another format, from an earlier release, is refused by name.
	if err := dev.SetBlockFormat(disk.FormatColumnar); err != nil {
		return nil, fmt.Errorf("hsq: %w", err)
	}
	if err := applyDiskProfile(dev, cfg.SimulateDisk); err != nil {
		return nil, err
	}
	return dev, nil
}

// storeConfig derives a stream's partition-store configuration from the DB
// options — the one place every knob is forwarded, shared by the manifest a
// registration writes and the store a hydration loads, so they cannot drift
// apart.
func storeConfig(cfg Options, eps1 float64, namespace string) partition.Config {
	return partition.Config{
		Kappa:            cfg.Kappa,
		Eps1:             eps1,
		ProbeMemoEntries: cfg.ProbeMemoEntries,
		Namespace:        namespace,
	}
}

// newEngineOn hydrates a registered stream's engine from the store manifest
// in its namespaced device view. full must have passed withDefaults. Each
// partition's summary is taken from held — the summary the stream's last
// eviction in this process captured, or nothing — where it matches, and
// rebuilt with one sequential scan otherwise; with sweep, the load also
// garbage-collects what a crashed or failed install left. Every durable step
// is a partition, so a reopened stream serves its recovered prefix at once.
func newEngineOn(dev *disk.Manager, full Options, namespace string, sweep bool, held []core.PartSummary) (*engine, error) {
	eps1 := full.Epsilon / 2
	store, err := partition.LoadStore(dev, manifestName, storeConfig(full, eps1, namespace), held...)
	if err != nil {
		return nil, err
	}
	if sweep {
		if _, err := store.CollectOrphans(manifestName); err != nil {
			return nil, err
		}
	}
	return &engine{cfg: full, eps1: eps1, dev: dev, store: store}, nil
}

// observe feeds one stream element (StreamUpdate, Algorithm 4): it is
// appended to the live step's tail, which a read or EndStep folds into the
// step's run.
func (e *engine) observe(v int64) error {
	return e.observeSlice([]int64{v})
}

// observeSlice feeds a slice of elements under one lock acquisition.
func (e *engine) observeSlice(vs []int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.tail = append(e.tail, vs...)
	return nil
}

// liveCount is m, the live step's size. Caller holds mu.
func (e *engine) liveCount() int64 { return e.run.M + int64(len(e.tail)) }

// fold merges the tail into a new run: the tail is sorted in place with the
// store's kept scratch (Store.Sort, never beside a Seal, both under mu) and
// merged with the run into a fresh buffer (StreamPiece.Merge), so no piece a
// reader holds is written. The tail keeps its buffer. Caller holds mu.
func (e *engine) fold() {
	if len(e.tail) == 0 {
		return
	}
	e.store.Sort(e.tail)
	e.run = e.run.Merge(e.tail)
	e.tail = e.tail[:0]
}

// StreamCount returns m, the number of elements in the current (unloaded)
// stream.
func (e *engine) StreamCount() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.liveCount()
}

// HistCount returns n, the number of elements in the warehouse — installed
// partitions plus a sealed step whose level-0 write is running or failed.
func (e *engine) HistCount() int64 { return e.store.TotalCount() }

// TotalCount returns N = n + m.
func (e *engine) TotalCount() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store.TotalCount() + e.liveCount()
}

// Steps returns the number of completed time steps.
func (e *engine) Steps() int { return e.store.Steps() }

// PartitionCount returns the number of live partitions in HD.
func (e *engine) PartitionCount() int {
	return e.store.PartitionCount()
}

// endStep is Stream.EndStep on the pinned engine: settle what a failed
// EndStep left, cut and seal, settle — write the step's level-0 partition
// and run the merges it makes due — and commit once.
func (e *engine) endStep() (UpdateStats, error) {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	// closed only changes under loadMu, and only a cut empties the live step.
	e.mu.Lock()
	closed, empty := e.closed, e.liveCount() == 0
	e.mu.Unlock()
	if closed {
		return UpdateStats{}, ErrClosed
	}
	if empty {
		return UpdateStats{}, nil
	}
	// What a failed EndStep left is settled first: its sealed step written,
	// and the merges it left due run. Only a step still sealed stops the cut
	// — no step is ever sealed behind another — and the live step stays
	// live, for the next EndStep to close. A merge that failed again does
	// not: the settle after the cut retries it and reports it, so a merge
	// that keeps failing never stops steps from being written and committed.
	_, err := e.settle()
	var us UpdateStats
	step := e.store.Steps() + 1
	if e.store.Sealed() == nil {
		// The cut (Algorithm 4's StreamReset): the live step, folded into one
		// run, leaves the live step and joins the store's published history
		// in one move, so from here on every reader counts and answers the
		// step alike. The store writes the run's elements, and readers share
		// the run as the sealed step's piece.
		e.mu.Lock()
		t0 := time.Now()
		e.fold()
		e.store.Seal(e.run.SS[1:], time.Since(t0))
		e.sealed, e.run = e.run, core.StreamPiece{}
		e.mu.Unlock()
		us, err = e.settle()
	}
	if err != nil {
		err = fmt.Errorf("hsq: end step %d: %w", step, err)
	}
	if cerr := e.store.Commit(manifestName); cerr != nil && err == nil {
		err = fmt.Errorf("hsq: commit step %d: %w", step, cerr)
	}
	return us, err
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
// pinned store version plus the memory-resident stream pieces (the
// version's sealed step and the live step's run, whole and shared, never
// written).
// Everything a query reads after the snapshot is immutable, so the whole
// disk search runs without any engine lock; release returns the pin so
// reclaimed partitions can be deleted.
type querySnap struct {
	ver    *partition.Version
	memo   *partition.ProbeMemo // the version's; nil once scope narrows sums
	sums   []*partition.Summary // installed partitions, oldest first
	pieces []core.StreamPiece
	n      int64 // grand total across version and live stream
}

func (s *querySnap) release() { s.ver.Release() }

// piecesAt is the snapshot's pieces at ε₁, as ScopedSummary sends them and
// a quick answer reads them: the answer a plan member or a peer gives.
func (s *querySnap) piecesAt(eps1 float64) []core.StreamPiece {
	var out []core.StreamPiece
	for _, p := range s.pieces {
		out = append(out, p.At(eps1))
	}
	return out
}

// snapshot pins the engine's current state for one query. The engine lock
// is held only for the pin and the fold of the live step's new values; a
// snapshot that finds no new value sorts and copies nothing.
func (e *engine) snapshot() (*querySnap, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	s := &querySnap{ver: e.store.Pin()}
	s.sums, s.memo, s.n = s.ver.Entries(), s.ver.Memo(), s.ver.TotalCount()
	// One version covers each step once: by its partition or, sealed, by
	// the run the cut sealed, which e.sealed holds until settle clears it
	// under e.mu after the install's publish.
	s.pieces = make([]core.StreamPiece, 0, 2)
	if s.ver.Sealed() != nil {
		s.pieces = append(s.pieces, e.sealed)
	}
	e.fold()
	if e.run.M > 0 {
		s.pieces = append(s.pieces, e.run)
		s.n += e.run.M
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
		return QuickAnswer(core.BuildPieces(s.sums, s.piecesAt(e.eps1), e.eps1, 0), req)
	}
	t0 := time.Now()
	rs, err := req.ranks(s.n)
	if err != nil {
		return Answer{}, err
	}
	ans := Answer{N: s.n}
	if len(req.Values) > 0 {
		ans.Values, ans.Stats, err = core.RankOfValues(s.sums, s.pieces, req.Values, !e.cfg.NoBlockPin)
	} else {
		c := core.BuildPieces(s.sums, s.pieces, e.eps1, 0)
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

// status is Stream.Status on the pinned engine. The live count, the
// write-path counters and the version pin share one hold of e.mu, the hold
// a cut seals under, so m and n never straddle a seal; the rest is read off
// the pinned version. A closed engine reports the zero status: no pin is
// taken past closed.
func (e *engine) status() StreamStatus {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return StreamStatus{}
	}
	ver, m, ms := e.store.Pin(), e.liveCount(), e.mstats
	e.mu.Unlock()
	defer ver.Release()
	st := StreamStatus{
		Hydrated: true, StreamCount: m, HistCount: ver.TotalCount(),
		Steps: ver.Steps(), Partitions: ver.PartitionCount(), Levels: ver.Describe(),
		Running: ms.running > 0, Installs: ms.installs, Merges: ms.merges, LastError: ms.lastErr,
		Memory: e.MemoryUsage(), ProbeMemo: e.store.MemoStats(),
	}
	st.PendingSteps, st.PendingElements = ver.Backlog()
	// A window is answerable iff it starts on a span boundary (the selector's
	// rule): one size per span, newest span first.
	bounds := append([]int{0}, spanEnds(ver)...)
	for i := len(bounds) - 2; i >= 0; i-- {
		st.Windows = append(st.Windows, bounds[len(bounds)-1]-bounds[i])
	}
	return st
}

// MemoryUsage returns the current summary footprint (Observation 1).
func (e *engine) MemoryUsage() MemoryUsage {
	e.mu.Lock()
	defer e.mu.Unlock()
	var pendingBytes int64
	if sb := e.store.Sealed(); sb != nil {
		pendingBytes = sb.MemoryBytes()
	}
	return MemoryUsage{
		HistBytes:    e.store.MemoryBytes(),
		StreamBytes:  8 * int64(cap(e.tail)+cap(e.run.SS)),
		PendingBytes: pendingBytes,
	}
}

// ProbeMemoStats is a stream's rank-probe memo counters (see
// Options.ProbeMemoEntries): hits, misses, stores and evictions across every
// store version so far, plus the current version's occupancy.
type ProbeMemoStats = partition.MemoStats

// shut closes the engine without a commit (DB.DropStream, and a hydration
// the DB no longer wants): with loadMu held, no EndStep or checkpoint is
// mid-commit, and none commits once the engine is closed. The durable
// state is what was last committed; the live step is lost.
func (e *engine) shut() {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	e.markClosed()
}

// markClosed moves the engine to its terminal state and waits out in-flight
// queries: no new pins are possible past closed, so the files they read
// are never removed under them. Caller holds loadMu.
func (e *engine) markClosed() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.store.DrainPins()
}

// LevelInfo describes one level of a stream's on-disk store.
type LevelInfo = partition.LevelInfo
