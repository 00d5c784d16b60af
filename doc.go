// Package hsq (historical-streaming quantiles) implements the method of
// Singh, Srivastava and Tirthapura, "Estimating Quantiles from the Union of
// Historical and Streaming Data" (PVLDB 10(4), 2016): approximate
// φ-quantile queries over the union T = H ∪ R of a disk-resident historical
// warehouse H and an in-flight data stream R, with rank error ε·|R| — a
// fraction of the stream size rather than of the whole dataset.
//
// A stream is observed element by element; at the end of each time step the
// accumulated batch is loaded into the warehouse, which keeps sorted
// partitions organized in levels with a merge threshold κ. Small in-memory
// summaries of both sides (β₁ exactly-ranked samples per partition, a
// Greenwald-Khanna sketch of the stream) answer quick queries immediately
// and seed an accurate query that performs a handful of random disk reads.
//
// Basic usage — a DB (Open) hosts named streams, and a *Stream is the one
// handle on the paper's engine; a single-stream deployment is a DB with one
// stream:
//
//	db, err := hsq.Open(hsq.Options{Epsilon: 0.01, Kappa: 10, Dir: dir})
//	lat, err := db.Stream("api.latency") // get-or-create
//	...
//	lat.Observe(v)          // for each stream element
//	lat.EndStep()           // at each time-step boundary
//	med, _, err := lat.Quantile(0.5)   // accurate: error ≤ ε·|stream|
//	db.Close()              // checkpoint every stream, release the backend
//
// # Reading
//
// There is one read call, Query(ctx, Request) on a Stream; Quantile, Quantiles and Rank are shorthands for its most common shapes.
// A Request names its targets — Phis, Ranks, or Values for the inverse
// rank-of-value question — and three fields that map onto the paper:
//
//	field      paper                          the answer's rank error
//	(default)  Algorithm 6 / Theorem 2        ≤ ε·N, a few random disk reads
//	Quick      Algorithm 5 / Lemma 3          ≤ 1.5·ε·N, zero disk reads
//	Window     §2.4 "Queries Over Windows"    as above, N = the window's size
//	MaxReads   conclusion's "stopping early"  Stats.Truncated: inside the 4·ε·N
//	                                          filter spread (Lemma 4)
//
// Every field composes with every other: the request pins one snapshot,
// selects its scope, resolves its targets to ranks (⌈φ·N⌉) and runs either
// the in-memory answer or one shared bisection sweep, polling ctx between
// disk probes. The Answer carries the values, the scope's size N from the
// same snapshot, and the disk-side QueryStats.
//
//	a, err := lat.Query(ctx, hsq.Request{Phis: []float64{0.5, 0.99}, Window: 6, Quick: true})
//
// # Storage
//
// The warehouse sits on a pluggable storage seam (internal/disk.Backend):
// Options.Backend selects "file" (a directory of flat files rooted at
// Options.Dir, the default) or "mem" (heap-resident, volatile — for tests,
// benchmarks and cache simulation). Options.CacheBlocks layers a sharded LRU
// block cache over either backend; random reads absorbed by the cache cost
// no disk access and are reported separately as CacheHits in IOStats (the
// device's own disk.Stats) and QueryStats (the sweep's core.QueryCost),
// preserving the paper's "number of disk accesses" metric for the reads that
// actually reach storage. Each counter set is declared once, by the layer
// that fills it; the names here are aliases of those declarations.
//
//	fast, err := hsq.Open(hsq.Options{Epsilon: 0.01, Backend: "mem", CacheBlocks: 4096})
//
// # Block format
//
// There is one writer per file kind and no knob. Two layouts exist on disk:
//
//   - columnar, the layout of partitions, sort runs and merge outputs: a
//     versioned compressed layout. The file opens
//     with an 8-byte magic; each block carries a 25-byte header — format
//     tag, element count, frame length, and the block's min/max values —
//     followed by a delta-encoded zig-zag varint frame (blocks whose deltas
//     don't compress fall back to a plain int64 frame per block). A footer
//     indexes every block (offset, count, min, max) so readers locate
//     blocks without scanning. Sorted runs typically pack 3-8x more
//     elements per block, and accurate queries consult the header min/max
//     before reading: a bisection step whose probe value falls outside a
//     block's bounds resolves with no access at all, reported as
//     SkippedBlocks in IOStats and QueryStats.
//   - raw, the original format — plain little-endian int64 frames, no
//     header: the layout of unsorted batch spills (delta frames only pay
//     off on sorted data) and of partitions written by earlier releases.
//
// Versioning rule: readers detect the layout per file (magic plus footer
// validation, falling back to raw), so a warehouse written by an older
// version opens and queries unchanged, and raw and columnar partition
// files coexist — and merge, into columnar outputs — freely within one
// store.
//
// Cache accounting: the block cache charges cached blocks by their decoded
// size in bytes (Options.CacheBlocks × BlockSize is the byte budget), not by
// entry count — a decoded columnar block holds several blocks' worth of
// raw elements, and counting entries would hand the compressed format a
// hidden cache-size advantage in comparisons. benchmark/ traces the codec
// on every workload (disk.encode_ns_per_value, disk.decode_ns_per_value,
// disk.skip_ratio, disk.cache_hit_ratio).
//
// # Multiple streams
//
// A DB hosts many named quantile streams over one shared device: one
// backend, one block-cache budget, one manifest root, one scheduler. Each
// Stream is a handle on an unexported engine — the paper's GK sketch,
// κ-leveled partitions and bisection — that the DB hydrates on first touch,
// pins for the length of each call and may evict while idle; each
// Stream.DiskStats sums with the others to DB.DiskStats,
// and the shared cache budget flows to whichever stream is hot (see
// TestMultiStreamSharedCache). Open reads only the stream directory from the DB
// manifest — cost proportional to the number of registered streams, not
// to their data — so a multi-stream daemon restarts in milliseconds
// regardless of warehouse size.
//
//	db, err := hsq.Open(hsq.Options{Epsilon: 0.01, Dir: dir, CacheBlocks: 4096})
//	lat, err := db.Stream("api.latency")     // get-or-create
//	lat.Observe(17)
//	lat.EndStep()
//	p99, _, err := lat.Quantile(0.99)
//	db.Close()                               // checkpoint all streams, release backend
//
// Mutating methods have context variants (ObserveCtx, ObserveSliceCtx,
// EndStepCtx) that honor cancellation — for EndStepCtx under async
// maintenance, also while blocked on backpressure.
//
// # Query layer
//
// Package internal/query composes quantile queries across streams from a
// small operator set, evaluated lazily against pinned snapshots:
//
//   - member selection: explicit stream lists and/or a segment glob over
//     the '.'-separated name hierarchy ("api.*.latency", "api.**");
//   - merge: a group's member summaries are combined with
//     core.MergeShardSummaries — summaries move, never data;
//   - group-by: partition the member set by a 1-based name segment
//     (GroupBy(2) buckets "api.eu.lat" and "api.us.lat" by region);
//   - windows: tumbling or sliding series of step-aligned time windows;
//   - time travel: AsOfStep(n) answers as of the end of step n, excluding
//     the live buffer.
//
// Plans are built with db.Query() (or plain JSON via query.ParsePlan —
// the same object drives hsqd's POST /query and wire subscriptions):
//
//	res, err := db.Query().Match("api.*.latency").GroupBy(2).
//	        Windows(6, 1, 3).Phis(0.5, 0.99).Run()
//
// Error composition: each member summary carries per-item rank bands
// that are merge-invariant, so a merged or grouped answer keeps the
// single-stream guarantee — rank error at most ⌈1.5·ε·N⌉ where N is the
// union's element count in scope (the WindowResult reports both ε and
// the bound). Cold streams answer from their sealed-summary sidecar
// without hydrating, so a glob over a mostly-cold fleet costs no
// hydrations and no backend reads. The sidecar (SUMMARY.bin) is the
// stream's full-scope core.ShardSummary in its one encoding — the bytes a
// peer would be sent — so core.DecodeShardSummary validates the file as
// it validates a reply; one the decoder refuses (an earlier build's
// version byte included) or that fails its freshness cross-check against
// the stream manifest falls back to one hydration, counted in
// DirectoryStats.SummaryFallbacks, and is rewritten at the stream's next
// eviction or checkpoint.
//
// Which summaries a scoped read sees is one decision in one place. A
// stream is a chronological list of spans — its partitions, oldest first
// (the only order partition.Version publishes), then one span per
// sealed-but-uninstalled step — and query.Scope.Select resolves a
// {Window, Back, AsOf} scope against the spans' end steps. A hydrated
// member hands it the ends of its snapshot, an evicted member the ends of
// its sidecar, a registered-never-sealed one no ends at all, and
// Request.Window is the same call with Scope{Window: w}: hot and cold
// members are one function over different inputs and agree byte for
// byte, errors included (TestScopeHotColdAgree).
//
// Retention caveat for windows, AsOfStep and shifted windows: scoped
// answers are assembled from whole spans, so both scope ends must land on
// span boundaries. Background merges coarsen those boundaries over
// time — old cut points disappear as their partitions merge (κ controls
// how fast), and a query that cuts inside a merged partition is refused
// with the surviving boundaries listed rather than answered beyond the
// guarantee.
//
// Continuous queries push instead of poll: hsqclient.Subscribe registers
// a plan over the ingest connection and the server re-evaluates it after
// relevant end-of-step events, debounced (ingest.Config.PushDebounce)
// and coalesced to the latest state — delivery is at-least-once per
// dirty state, newest wins, intermediate states may be skipped, and a
// reconnect re-subscribes rather than replays. A malformed plan nacks
// just that subscription (wire.ErrCodePlan) and leaves the connection's
// ingest traffic untouched.
//
// # Stream lifecycle
//
// A stream is registered or hydrated. Registered means the DB knows the
// name: an entry in the directory manifest plus a ~150-byte in-memory
// descriptor, nothing else. Hydrated means the stream's engine is
// resident — summaries rebuilt, maintenance resumed, queries served from
// memory plus a few random reads. Registration happens in Stream (get-or-
// create) or RegisterStreams (bulk, one manifest commit for any number of
// names); hydration happens lazily, on the first operation that needs the
// engine, outside the DB-wide lock — a slow cold open (large manifest,
// summary-rebuild scan) never blocks operations on other streams, and two
// goroutines touching the same cold stream hydrate it exactly once.
//
// Options.MaxHydratedStreams bounds how many engines stay resident (0, the
// default, means unbounded). Past the budget the DB evicts
// least-recently-used idle streams: eviction seals the stream — drains
// its maintenance backlog, commits its manifest, waits out in-flight
// queries — and then drops the engine, so an evicted stream loses
// nothing and its next touch rehydrates the exact same state. In-flight
// operations pin their engine (never evicted mid-query), and a stream
// holding a live observe buffer is not evictable — only EndStep may cut
// a batch — so the budget is a target the DB converges to as streams go
// idle, not a hard cap. Lookup returns a handle without hydrating;
// Stream.Hydrated reports residency; DB.DirectoryStats (and hsqd's GET
// /streams) counts registered vs hydrated streams and cumulative
// hydrations/evictions. TestDirectoryGrowthKeepsResidentSetAtBudget pins
// the point: registered streams grown 1000× under a fixed budget, with
// the hydrated count at the budget and resident heap tracking the hot set;
// benchmark/'s endstep_fleet workload times hydration and eviction under
// load (hsq.stream_acquire_us_p50, hsq.hydrations, hsq.evictions).
//
// DropStream commits the directory without the stream durably before
// deleting any file, and the name stays claimed until the deletion
// completes: Stream waits an in-flight drop out, RegisterStreams reports
// the conflict, and Lookup treats the stream as already gone. A
// re-created stream therefore always starts empty — it can never resume
// from the dropped stream's not-yet-deleted files.
//
// # Concurrency model
//
// Reads are snapshot-isolated. The store's published state is a chain of
// immutable versions (partition set + summaries); a query takes the engine
// lock only long enough to pin the current version and capture the
// memory-resident stream summaries, then runs its whole disk search outside
// any lock. Files a merge supersedes are reclaimed only once no durable
// manifest references them AND the last query pinning an older version has
// finished — so an in-flight query always reads a consistent, existing
// layout, no matter what maintenance does behind it.
//
// EndStep is one pipeline in every maintenance mode: cut (the batch and GK
// sketch leave the stream atomically), seal (the raw batch is spilled and
// queued), install (external sort into a level-0 partition, cascading
// κ-way merges), commit (data barrier, manifest, barrier). Until a step's
// install is published, queries cover it through its frozen stream summary,
// so answers always span the full observed history and neither Observe nor
// a query waits for an install; the rank-error bound degrades gracefully to
// ε times the stream-side mass (live stream + sealed steps). The install is
// one routine, and Options.Maintenance picks only who runs it:
//
//   - "sync" (default): the EndStep caller, before it commits and returns —
//     the paper's loading paradigm. A returned step is a partition.
//   - "async": a DB-wide scheduler (one bounded pool of
//     Options.MaintenanceWorkers workers shared by all streams), FIFO per
//     stream. EndStep returns once the seal is committed; the sealed
//     backlog is bounded by MaxPendingSteps.
//   - "manual": nobody until SyncMaintenance is called — for deterministic
//     harnesses (internal/crashtest).
//
// A step whose install fails stays sealed — counted, answered, durable once
// a commit succeeds — and is retried by the next EndStep in sync mode or by
// SyncMaintenance in any.
//
// Backpressure: with async maintenance, EndStep blocks once
// Options.MaxPendingSteps sealed steps await installation, waking as
// installs complete; EndStepCtx aborts the wait on cancellation. A stream
// that wants a fully-merged, quiesced layout (before a benchmark, a
// snapshot copy, a test assertion) calls SyncMaintenance; DB.WaitIdle is
// the all-streams barrier. MaintenanceStats (per stream) and
// DB.SchedulerStats (pool occupancy, aggregate merge debt,
// maintenance-attributed I/O) expose the machinery.
//
// The durability guarantee is mode-independent: a nil EndStep return means
// the step survives any crash. A step sealed but not yet installed has its
// spill as its durable form — reopening re-installs sealed steps from their
// spills before serving.
//
// # Query performance
//
// The combined summary TS is never materialised. A query asks it only for
// point selections — the smallest value with L ≥ r, the largest with U ≤ r
// — and Lemma 2 defines L(v) and U(v) as sums over the summaries of
// α(v) = |{elements ≤ v}|, so core.Combined keeps the k sorted partition
// and stream-piece summaries as they are (an O(k) constructor) and selects
// over them by bisecting the value space with one binary search per run and
// probe: about k·log β comparisons per selection, O(k) scratch, nothing per
// entry, and nothing cached per store version. Every run must be sorted
// ascending; a peer's shard summary that is not is refused at decode.
// A rank-of-value request reads partitions and stream pieces only.
//
// A request's quantile targets are answered in one shared value-space
// sweep rather than k independent bisections. The sweep probes
// the midpoint of the lowest-rank unresolved target, so that target walks
// exactly its solo probe sequence — a k-target call never costs more
// probes than k single-target calls — while targets whose filters bracket
// the probe narrow for free and one accepting probe resolves every target
// within its acceptance band. Banded φ sets (within ε·m/n of each other)
// see ≥2× fewer probes; spread sets tie on probes but share cursor
// descents, cutting backend reads. Request.MaxReads bounds the sweep's
// total backend reads (unresolved targets fall back to the quick estimate
// and Truncated is set) and a cancelled context aborts it. The sweep is
// sequential: one cursor set, the left subrange then the right.
//
// Each published store version carries a bounded memo of resolved rank
// probes (Options.ProbeMemoEntries; default 4096, negative disables).
// Versions are immutable, so memo entries can never go stale — they die
// with their version, with no invalidation protocol. Repeating a query on
// an unchanged snapshot resolves entirely from the memo:
// QueryStats.MemoHits equals Iterations and RandReads is zero. Memo hits,
// cache hits and skipped blocks are the absence of a disk access: none of
// them spend Request.MaxReads budget or count toward the paper's
// disk-access metric. Window queries bypass the memo (their ranks are
// window-relative); Stream.ProbeMemoStats aggregates counters across
// versions.
//
// # Durability
//
// The warehouse is crash-consistent, with one exact guarantee: after a
// crash, a reopened DB recovers precisely a prefix of the time
// steps whose EndStep completed — per stream, every batch up to some
// completed step, never a torn or partial batch, with all quantile bounds
// intact over the recovered data. When EndStep returns nil that step is
// already durable, so the recovered prefix is at least everything that was
// acknowledged (it can exceed it by at most the one step that committed
// just before the crash). The in-flight batch of the current, unfinished
// step is volatile by design and is lost on a crash, exactly as a DSMS
// would replay or drop it.
//
// The guarantee comes from a write-data → sync → commit-manifest → sync
// ordering on every mutation: partition files are immutable once written
// and durable before the manifest that references them commits, manifests
// replace atomically, and files superseded by a commit (merged-away
// partitions, raw batch spills) are removed only after the commit is
// durable — and, with snapshot-isolated reads, only after the last pinned
// version that could read them is released. Opening detects and
// garbage-collects whatever a half-finished install left behind instead of
// failing on it, and re-installs any steps that were sealed but not yet
// installed when the process died.
//
// Backend implementations must provide the three primitives this protocol
// leans on: WriteMeta must be crash-atomic (old content or new, never
// torn), Sync must be a durability barrier for every previously completed
// write, and List must enumerate files so recovery can find orphans. The
// file backend implements them with fsync and atomic renames; the
// conformance suite in internal/disk covers the contract, and the
// deterministic crash harness in internal/crashtest proves the end-to-end
// guarantee by crashing a seeded workload at every backend operation and
// reopening under adversarial recovery modes.
//
// # Remote ingestion
//
// Producers in another process feed a DB through the remote ingest
// subsystem: hsqd's -ingest-addr TCP listener speaks a versioned,
// length-prefixed binary frame protocol (internal/wire) whose value
// batches are delta-encoded zig-zag varints, and the public hsqclient
// package is its batching SDK (Dial, Stream, Observe/ObserveSlice,
// EndStep, Flush, Close). Batches and end-of-step markers are sequenced,
// applied in order through the ObserveSlice fast path, and acknowledged
// cumulatively after application; a reconnecting client resumes its
// session and replays only unacknowledged frames, giving exactly-once
// application per server process. Backpressure is explicit: a credit
// window bounds frames in flight, the server applies each frame before
// reading the next, and a stream stalled on MaxPendingSteps stops acking
// until the producer's Observe blocks. The server pipeline lives in
// internal/ingest; GET /ingest exposes its counters. hsqd's REST writes
// (newline integers or batched JSON, parsed whole) enter the same pipeline
// one step in, through ingest.Server.Write: the apply body a connection's
// frame runs after its replay check, so both doors share one engine call
// site, one set of tallies and one push nudge. benchmark/'s ingest_firehose
// workload measures the wire door end to end (ingest_values_per_s, with
// wire.* and ingest.* per layer).
//
// # Cluster
//
// Several hsqd nodes form a sharded, replicated deployment
// (internal/cluster): an explicit, epoch-numbered membership and a
// deterministic consistent-hash ring place each stream on an owner node
// plus R−1 follower replicas. Every node is a full front door — wire
// frames for streams placed elsewhere are routed to the owning shard with
// the client's own session token and sequence numbers, so the per-session
// replay machinery gives exactly-once application end to end, and REST
// writes travel the same way under the node's origin session (a token
// drawn per process, so a restart never collides with marks its
// predecessor left on live peers); a member applies each sequenced frame locally, fans it to the
// stream's other members, and acknowledges the client only after every
// reachable member acknowledged. A client whose node dies fails over to
// another address (hsqclient.Dial accepts a comma-separated list), learns
// per-stream applied high-water marks from the Welcome, and replays only
// what is missing.
//
// Queries compose the same way the engine composes H and R: each shard
// exports its in-memory state as a core.ShardSummary (the wire's
// SummaryReq/SummaryResp frames, served by Stream.Summary — the full-scope
// case of the DB.ScopedSummary a local plan member uses, so fetching an
// evicted stream's summary is a metadata read of its sidecar on the owner
// and never hydrates it; the encoding is versioned and a peer on another
// version is refused by name, so a mixed-build cluster fails cross-shard
// reads loudly instead of guessing), and a coordinator merges any set
// of them with core.MergeShardSummaries into one Combined summary whose
// quick answers are within 1.5·ε·N of the true rank over the union —
// distribution costs latency, never accuracy. The replication guarantee
// is bounded, not absolute: a follower unreachable past the transport's
// DownAfter is declared down and its fan-out frames are dropped (counted,
// visible in hsqd's GET /cluster) so ingest degrades instead of blocking;
// there is no automatic rebalancing and no cross-member read-your-writes
// within a step. Peer summaries a coordinator fetches for streams it does
// not host are cached per {stream, node, ring epoch} for
// cluster.Config.SummaryTTL (hsqd -summary-cache-ttl, default 2s,
// negative disables), invalidated early when the node relays an
// end-of-step frame for the stream and wholesale on membership-epoch
// change; a cached summary can be stale only by in-flight data the
// 1.5·ε·N quick-query bound already absorbs. TestClusterEndToEnd and the node-kill harness in
// internal/crashtest prove the failover contract under -race.
//
// See DESIGN.md for the full mapping from the paper's algorithms to this
// package and EXPERIMENTS.md for the reproduced evaluation.
package hsq
