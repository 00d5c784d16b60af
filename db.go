package hsq

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/query"
)

// ErrUnknownStream is returned (wrapped, with the name) by operations on a
// stream the DB does not host; test with errors.Is.
var ErrUnknownStream = errors.New("hsq: unknown stream")

// dbManifestName is the DB-level manifest (stream directory) on the root
// of the device.
const dbManifestName = "DB.json"

// streamNamespacePrefix is where stream state lives on the device:
// streams/<name>/{MANIFEST.json, part-*.dat}.
const streamNamespacePrefix = "streams"

const dbManifestVersion = 1

// dbManifest is the durable stream directory: which named streams exist,
// so Open can resume all of them after a restart. Per-stream layout lives
// in each stream's own manifest under its namespace.
type dbManifest struct {
	Version int      `json:"version"`
	Streams []string `json:"streams"`
}

// DB hosts many named quantile streams over one shared device: one storage
// backend, one block-cache budget, one manifest root. Each stream is the
// paper's full engine (Observe/EndStep/Quantile/Rank/Window surface, see
// Stream) running on a namespaced view of the device — a single-stream
// deployment is a DB with one stream — so streams are isolated on disk and in
// per-stream I/O accounting while competing for — and benefiting from —
// the same cache. DB is safe for concurrent use.
//
// The stream directory distinguishes registered from hydrated streams:
// every stream listed in the DB manifest is registered (a lightweight
// descriptor, ~100 bytes), but an engine — GK sketch, partition summaries,
// maintenance state — is hydrated only on first touch, outside the DB
// lock, with per-name singleflight. With Options.MaxHydratedStreams set,
// idle streams are sealed (durably checkpointed) and evicted in LRU order,
// so resident memory tracks the hot set, not the directory size. Open
// loads only the directory: restart cost is O(registered streams), with
// each stream's summary-rebuild scan deferred to its first touch.
//
//	db, err := hsq.Open(hsq.Options{Epsilon: 0.01, Dir: dir, CacheBlocks: 4096})
//	lat, err := db.Stream("api.latency")
//	lat.Observe(17)
//	...
//	p99, _, err := lat.Quantile(0.99)
type DB struct {
	mu    sync.Mutex
	opts  Options
	dev   *disk.Manager // root view: aggregate stats, shared cache
	sched *scheduler    // DB-wide background maintenance pool (async mode)
	dir   map[string]*Stream
	seq   uint64 // LRU clock, incremented on every touch

	hydrated         int // streams with eng != nil
	hydrations       uint64
	evictions        uint64
	summaryFallbacks uint64        // cold summary reads that had to hydrate
	sidecarDecodes   atomic.Uint64 // cold summary reads that decoded SUMMARY.bin
	coldBytes        int64         // held cold summaries, at most coldBudget
	coldBudget       int64         // coldSummaryBudget (lowered by internal tests)
	closed           bool
	dirDirty         bool // directory written but its durability sync failed
}

// Open opens (or creates) a multi-stream DB on the configured device. If
// the device holds a DB manifest from a previous run, every stream listed
// in it is registered — but not hydrated: each stream's engine (and its
// one-sequential-scan summary rebuild) is loaded lazily on the stream's
// first touch, so Open costs O(directory), not O(total data), and a daemon
// with a huge, mostly-cold stream directory restarts in constant-ish time.
func Open(opts Options) (*DB, error) {
	full, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	dev, err := newDevice(full)
	if err != nil {
		return nil, err
	}
	// In async mode, one bounded worker pool shared by every stream of the
	// DB: installs and merges from all streams compete for the same
	// MaintenanceWorkers goroutines, with per-stream FIFO ordering (see
	// maintenance.go).
	db := &DB{opts: full, dev: dev, dir: make(map[string]*Stream), sched: newScheduler(full), coldBudget: coldSummaryBudget}
	if !dev.Exists(dbManifestName) && dev.Exists(manifestName) {
		// A root-level store manifest without a DB manifest is a legacy
		// single-stream warehouse (written by releases that had a standalone
		// engine). Opening a DB over it would silently ignore all its data.
		return nil, fmt.Errorf("hsq: %s holds a legacy single-stream warehouse (root %s, no %s); to adopt it as a DB stream, move its files into %s/<name>/, set the moved manifest's \"namespace\" to that path and list <name> under \"streams\" in a version-%d %s",
			full.Dir, manifestName, dbManifestName, streamNamespacePrefix, dbManifestVersion, dbManifestName)
	}
	registered := map[string]bool{}
	if dev.Exists(dbManifestName) {
		data, err := dev.ReadMeta(dbManifestName)
		if err != nil {
			return nil, fmt.Errorf("hsq: read DB manifest: %w", err)
		}
		var m dbManifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("hsq: parse DB manifest: %w", err)
		}
		if m.Version != dbManifestVersion {
			return nil, fmt.Errorf("hsq: DB manifest version %d, want %d", m.Version, dbManifestVersion)
		}
		for _, name := range m.Streams {
			if registered[name] {
				continue
			}
			registered[name] = true
			db.dir[name] = &Stream{name: name, db: db}
		}
	}
	if err := db.collectUnregisteredStreams(registered); err != nil {
		return nil, err
	}
	return db, nil
}

// collectUnregisteredStreams removes the on-disk state of stream
// namespaces that the (committed) DB manifest does not list. They are
// crash debris: either a DropStream that committed the directory update
// but died before finishing the destroy, or a stream created and written
// whose registration never became durable. Per the durability contract,
// a stream missing from the committed directory has an empty prefix of
// completed steps — its files are orphans.
func (db *DB) collectUnregisteredStreams(registered map[string]bool) error {
	names, err := db.dev.List(streamNamespacePrefix + "/")
	if err != nil {
		return fmt.Errorf("hsq: list stream namespaces: %w", err)
	}
	for _, name := range names {
		rel := strings.TrimPrefix(name, streamNamespacePrefix+"/")
		stream, _, ok := strings.Cut(rel, "/")
		if !ok || registered[stream] {
			continue
		}
		if err := db.dev.Remove(name); err != nil {
			return fmt.Errorf("hsq: collect unregistered stream %q: %w", stream, err)
		}
	}
	return nil
}

// maxStreamNameLen bounds a stream name to one path component (NAME_MAX on
// the file backend, where each stream is a directory), on every backend.
const maxStreamNameLen = 255

// ValidStreamName reports whether name can name a stream: one namespace
// segment (letters, digits, '.', '_', '-'; no '/') of at most 255 bytes.
func ValidStreamName(name string) error {
	if len(name) > maxStreamNameLen {
		return fmt.Errorf("hsq: stream name of %d bytes exceeds %d", len(name), maxStreamNameLen)
	}
	if strings.Contains(name, "/") {
		return fmt.Errorf("hsq: stream name %q must not contain '/'", name)
	}
	if err := disk.ValidNamespace(name); err != nil {
		return fmt.Errorf("hsq: invalid stream name %q", name)
	}
	return nil
}

// touchLocked records a use of the stream for LRU eviction ordering.
// Caller holds db.mu.
func (db *DB) touchLocked(s *Stream) {
	db.seq++
	s.seq = db.seq
}

// acquire returns the stream's hydrated engine with a pin held, hydrating it
// if it is cold; the caller must db.release(s) when its operation completes
// (a plain deferred call: the write path allocates nothing here). While a
// stream is pinned it cannot be evicted, so queries, ingest batches and
// maintenance barriers never lose their engine mid-operation.
//
// The fast path (engine already hydrated) takes only db.mu — a map lookup
// and two counter bumps. The cold path hydrates outside db.mu under the
// stream's opMu: concurrent callers of the same stream singleflight behind
// one hydration, while operations on other streams proceed untouched. This
// is the structural fix for the historical cold-open stall, where one
// stream's manifest load and summary-rebuild scan blocked the whole DB.
func (db *DB) acquire(st *Stream) (*engine, error) {
	db.mu.Lock()
	eng, err, done := db.tryAcquireLocked(st)
	db.mu.Unlock()
	if done {
		return eng, err
	}

	// Cold: hydrate under the per-name singleflight lock, outside db.mu.
	st.opMu.Lock()
	defer st.opMu.Unlock()
	// Re-check: the hydration race may have been lost while waiting.
	db.mu.Lock()
	eng, err, done = db.tryAcquireLocked(st)
	view := st.view
	db.mu.Unlock()
	if done {
		return eng, err
	}

	if view == nil {
		v, nsErr := db.dev.Namespace(streamNamespacePrefix + "/" + st.name)
		if nsErr != nil {
			return nil, nsErr
		}
		db.mu.Lock()
		st.view = v
		view = v
		db.mu.Unlock()
	}
	resume := view.Exists(manifestName)
	fresh, err := newEngineOn(view, db.opts, streamNamespacePrefix+"/"+st.name, resume)
	if err != nil {
		return nil, fmt.Errorf("hsq: hydrate stream %q: %w", st.name, err)
	}
	fresh.sched = db.sched

	db.mu.Lock()
	if err := st.errLocked(); err != nil {
		db.mu.Unlock()
		// The DB closed (or the stream was dropped) while we hydrated;
		// nothing was mutated, so discard the engine quietly.
		fresh.Close() //nolint:errcheck // freshly hydrated, nothing to lose
		return nil, err
	}
	st.eng = fresh
	db.forgetColdLocked(st) // writes may now change the durable state it mirrors
	st.pins++
	db.hydrated++
	db.hydrations++
	db.touchLocked(st)
	victims := db.evictVictimsLocked()
	db.mu.Unlock()
	db.evict(victims)
	return fresh, nil
}

// errLocked reports why the stream's handle can no longer reach an engine:
// ErrClosed for a closed DB and, wrapped with the name, for a dropped
// stream — so callers racing a DropStream keep seeing ErrClosed, never an
// I/O error. Caller holds db.mu.
func (s *Stream) errLocked() error {
	if s.db.closed {
		return ErrClosed
	}
	if s.dropped {
		return fmt.Errorf("hsq: stream %q dropped: %w", s.name, ErrClosed)
	}
	return nil
}

// tryAcquireLocked is acquire's fast path. Caller holds db.mu. done
// reports whether the acquire finished (successfully or with an error);
// !done means the stream is cold and the caller must hydrate.
func (db *DB) tryAcquireLocked(st *Stream) (_ *engine, _ error, done bool) {
	if err := st.errLocked(); err != nil {
		return nil, err, true
	}
	if st.eng == nil {
		return nil, nil, false
	}
	st.pins++
	db.touchLocked(st)
	return st.eng, nil, true
}

// release drops one pin and, if the hydration that pinned alongside us
// pushed the DB over its budget while every candidate was pinned, retries
// the eviction now that this stream is idle again.
func (db *DB) release(st *Stream) {
	db.mu.Lock()
	st.pins--
	victims := db.evictVictimsLocked()
	db.mu.Unlock()
	db.evict(victims)
}

// evictVictimsLocked selects least-recently-used hydrated, unpinned
// streams until the hydrated count is back within MaxHydratedStreams.
// Streams with a live observe buffer are not candidates at all — evictOne
// would refuse them anyway, and selecting them would burn the whole
// victim quota on unevictable streams while sealed idle engines sit past
// the budget. Caller holds db.mu. Selection only — the actual
// seal-and-close runs in evict, outside db.mu.
func (db *DB) evictVictimsLocked() []*Stream {
	max := db.opts.MaxHydratedStreams
	if max <= 0 || db.hydrated <= max || db.closed {
		return nil
	}
	var cands []*Stream
	for _, st := range db.dir {
		if st.eng != nil && !st.dropped && st.pins == 0 && st.eng.StreamCount() == 0 {
			cands = append(cands, st)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })
	need := db.hydrated - max
	if need > len(cands) {
		need = len(cands)
	}
	return cands[:need]
}

// evict seals and dehydrates the victim streams, one at a time.
func (db *DB) evict(victims []*Stream) {
	for _, st := range victims {
		db.evictOne(st)
	}
}

// evictOne seals one idle stream back to its on-disk manifest and drops
// its engine. Sealing is a durable checkpoint: engine.Close drains the
// maintenance backlog, commits the manifest and waits out pinned queries,
// so an evicted stream loses nothing — its next touch rehydrates the exact
// same state. Streams that would lose state are skipped: a pinned stream
// (in-flight operation), a non-empty observe buffer (only EndStep may cut
// a batch), or — in async mode — a sealed backlog, which is requeued to
// the scheduler instead so the evictor never stalls behind another
// stream's merges. The budget is therefore a target the DB converges to,
// not a hard cap.
func (db *DB) evictOne(st *Stream) {
	st.opMu.Lock()
	defer st.opMu.Unlock()
	db.mu.Lock()
	eng := st.eng
	if db.closed || st.dropped || eng == nil || st.pins > 0 ||
		db.opts.MaxHydratedStreams <= 0 || db.hydrated <= db.opts.MaxHydratedStreams {
		db.mu.Unlock()
		return
	}
	if eng.StreamCount() > 0 {
		// A live observe buffer is volatile only across process death;
		// sealing here would silently drop it. Keep the stream resident.
		db.mu.Unlock()
		return
	}
	if db.sched != nil && eng.maintPending() {
		// Hand the backlog to the scheduler rather than draining it on
		// this caller; a later eviction pass collects the stream once the
		// installs finish.
		db.mu.Unlock()
		db.sched.enqueue(eng)
		return
	}
	// Detach before closing: a concurrent fast-path acquire either pinned
	// the stream before this point (pins > 0 above, so we bailed) or finds
	// eng == nil and waits on opMu for the eviction to finish.
	st.eng = nil
	db.hydrated--
	db.evictions++
	db.mu.Unlock()

	// The stream is durably sealed and cold once this returns; its summary
	// sidecar lets glob/group-by queries answer it without rehydrating, and
	// a summary a read held during the seal (the state before it) goes.
	err := db.sealCold(st.name, eng)
	db.mu.Lock()
	defer db.mu.Unlock()
	db.forgetColdLocked(st)
	if err != nil && !db.closed && !st.dropped {
		// The engine may be half-closed but its state is still durable up
		// to the failure; restore it so nothing is lost and surface the
		// failure on the next operation that touches the stream — unless
		// the DB closed (or the stream dropped) meanwhile, in which case
		// nothing will ever close it again and restoring would only make a
		// closed DB report a hydrated engine.
		st.eng = eng
		db.hydrated++
		db.evictions--
	}
}

// Stream returns the named stream, creating it on first use (and recording
// it in the DB manifest so a restart finds it). The returned *Stream is
// shared: every caller asking for the same name gets the same stream. The
// call hydrates the stream's engine if it is cold — registration itself is
// one atomic manifest write under the DB lock; the hydration (manifest
// read plus summary-rebuild scan) runs outside it, so a slow cold open
// never blocks operations on other streams.
func (db *DB) Stream(name string) (*Stream, error) {
	var (
		st      *Stream
		created bool
	)
	for {
		db.mu.Lock()
		if db.closed {
			db.mu.Unlock()
			return nil, ErrClosed
		}
		e, ok := db.dir[name]
		if ok && e.dropped {
			// The name is tombstoned: a DropStream committed the removal
			// and is still destroying files under e.opMu. Re-creating the
			// name now would let the new stream hydrate from the old,
			// not-yet-deleted manifest — and lose its fresh files to the
			// in-flight destroy. Wait the destroy out, then retry.
			db.mu.Unlock()
			e.opMu.Lock() // parks until the dropper finishes its destroy
			db.mu.Lock()
			failed := db.dir[name] == e && e.dropped
			db.mu.Unlock()
			e.opMu.Unlock()
			if failed {
				// The destroy failed and left its tombstone: the namespace
				// holds partially deleted files, so the name stays
				// unavailable until the next Open collects them.
				return nil, fmt.Errorf("hsq: stream %q dropped: %w", name, ErrClosed)
			}
			continue
		}
		if !ok {
			if err := ValidStreamName(name); err != nil {
				db.mu.Unlock()
				return nil, err
			}
			e = &Stream{name: name, db: db}
			db.dir[name] = e
			if err := db.saveManifestLocked(); err != nil {
				delete(db.dir, name)
				db.mu.Unlock()
				return nil, err
			}
			created = true
		}
		st = e
		db.mu.Unlock()
		break
	}

	if _, err := db.acquire(st); err != nil {
		if created {
			// Best-effort unregistration: the stream never hydrated, so
			// removing its directory entry leaves no on-disk debris beyond
			// what the next Open's orphan collection reclaims.
			db.mu.Lock()
			if db.dir[name] == st && st.eng == nil && st.pins == 0 && !st.dropped {
				// Tombstone before deleting: a hydration of this stream we
				// raced (another caller lost the singleflight, re-entered,
				// and is loading outside db.mu right now) re-checks dropped
				// before installing its engine, so it discards the engine
				// instead of hydrating into a stream that is no longer in
				// the directory — which would leak it past eviction and
				// Close while a later Stream(name) doubled the namespace.
				st.dropped = true
				delete(db.dir, name)
				db.saveManifestLocked() //nolint:errcheck // unregistration is advisory here
			}
			db.mu.Unlock()
		}
		return nil, err
	}
	db.release(st)
	return st, nil
}

// RegisterStreams registers the named streams in the directory — one
// durable manifest commit for the whole batch — without hydrating any of
// them. It is the bulk-provisioning path for large fleets (per-user or
// per-sensor stream sets), where registering names one Stream call at a
// time would rewrite the directory once per name. Already-registered names
// are skipped; a name whose DropStream is still destroying files is
// rejected (retry once the drop completes). On a validation, conflict or
// commit error nothing is registered; after a durability (sync) error the
// batch is registered in memory and a retry of the call re-syncs it.
func (db *DB) RegisterStreams(names ...string) error {
	for _, name := range names {
		if err := ValidStreamName(name); err != nil {
			return err
		}
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	added := make([]string, 0, len(names))
	for _, name := range names {
		if st, ok := db.dir[name]; ok {
			if st.dropped {
				// Mid-destroy tombstone: registering over it would hand the
				// new stream a namespace still being deleted. Stream waits
				// such a drop out; a bulk register reports the conflict.
				for _, a := range added {
					delete(db.dir, a)
				}
				db.mu.Unlock()
				return fmt.Errorf("hsq: stream %q is being dropped; retry when the drop completes", name)
			}
			continue
		}
		db.dir[name] = &Stream{name: name, db: db}
		added = append(added, name)
	}
	if len(added) == 0 && !db.dirDirty {
		db.mu.Unlock()
		return nil
	}
	if len(added) > 0 {
		if err := db.saveManifestLocked(); err != nil {
			for _, name := range added {
				delete(db.dir, name)
			}
			db.mu.Unlock()
			return err
		}
	}
	db.mu.Unlock()
	// The device-wide durability sync runs outside db.mu: a slow flush must
	// not stall every other stream's fast-path acquire. On failure the
	// batch stays registered in memory and in the written (not yet durable)
	// directory; dirDirty makes a retry — even one that adds no new names —
	// repeat the sync instead of short-circuiting.
	if err := db.dev.Sync(); err != nil {
		db.mu.Lock()
		db.dirDirty = true
		db.mu.Unlock()
		return err
	}
	db.mu.Lock()
	db.dirDirty = false
	db.mu.Unlock()
	return nil
}

// Lookup returns the named stream without creating it (and without
// hydrating it: a cold stream's engine loads on its first operation, not
// on Lookup). After Close, Lookup reports every name as not found —
// handing out streams from a closed DB would leak handles whose every
// operation fails with ErrClosed. A stream mid-DropStream is likewise not
// found: its removal is already committed.
func (db *DB) Lookup(name string) (*Stream, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, false
	}
	st, ok := db.dir[name]
	if !ok || st.dropped {
		return nil, false
	}
	return st, true
}

// Streams returns the names of all registered streams, sorted
// lexicographically. The slice is a point-in-time snapshot of the
// directory under one acquisition of the DB lock: streams registered or
// dropped afterwards are not reflected, and two concurrent calls may
// observe different sets. The sorted order is part of the contract —
// query-layer glob expansion and GET /streams both iterate it, so their
// output is deterministic for a given directory state.
func (db *DB) Streams() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.dir))
	for name, st := range db.dir {
		if st.dropped {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DropStream destroys the named stream: its partitions and manifest are
// removed from the device and it disappears from the stream directory.
//
// The drop is committed first — the stream directory without the stream is
// durably written before any file is deleted — so a crash mid-destroy
// leaves only unregistered orphan files, which the next Open collects. The
// reverse order would risk a committed directory pointing at a
// half-destroyed stream. Until the destroy finishes, the entry stays in
// the directory as a tombstone claiming the name (Stream waits, Register
// rejects): re-creating the stream mid-destroy would let it hydrate from
// the old, not-yet-deleted manifest while its fresh files were swept away.
// If the destroy itself fails, the tombstone — and the error — stand, and
// the name stays unavailable until the next Open collects the debris.
func (db *DB) DropStream(name string) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	st, ok := db.dir[name]
	db.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownStream, name)
	}
	// opMu serializes the drop against an in-flight hydration or eviction
	// of the same stream (so the engine below is stable) and parks Stream
	// callers waiting to re-create the name until the destroy completes.
	st.opMu.Lock()
	defer st.opMu.Unlock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if st.dropped || db.dir[name] != st {
		db.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownStream, name)
	}
	// Tombstone rather than delete: saveManifestLocked skips dropped
	// entries, so this one write is the commit, while the entry itself
	// keeps the name claimed until the files are gone.
	st.dropped = true
	db.forgetColdLocked(st)
	if err := db.saveManifestLocked(); err != nil {
		// WriteMeta is atomic: the failed write left the old directory (with
		// the stream) on the device, so memory and disk still agree.
		st.dropped = false
		db.mu.Unlock()
		return err
	}
	db.mu.Unlock()
	// The device-wide durability sync runs outside db.mu — a slow flush
	// must not stall every other stream's fast-path acquire; opMu alone
	// keeps the drop serialized against this stream.
	if err := db.dev.Sync(); err != nil {
		// The device now holds a directory without the stream; abandoning
		// the drop in memory alone would let any later device-wide sync make
		// that directory durable and a subsequent Open destroy a live
		// stream's data. Rewrite the directory with the stream restored.
		db.mu.Lock()
		st.dropped = false
		serr := db.saveManifestLocked()
		db.mu.Unlock()
		if serr != nil {
			return errors.Join(err, serr)
		}
		return err
	}
	db.mu.Lock()
	if db.closed {
		// Close raced in after the commit and owns every attached engine
		// now. The drop itself is durable — the stream's files are
		// unregistered orphans the next Open collects — but the destroy
		// cannot proceed over a closing device.
		db.mu.Unlock()
		return ErrClosed
	}
	eng := st.eng
	if eng != nil {
		st.eng = nil
		db.hydrated--
	}
	db.mu.Unlock()
	var derr error
	if eng != nil {
		// Destroy waits out pinned queries before deleting partition
		// files, so in-flight reads never see files vanish mid-search.
		derr = eng.Destroy()
	} else {
		derr = db.destroyColdStream(name)
	}
	if derr != nil {
		return derr
	}
	// The engine only destroys files it owns; the DB-level summary sidecar
	// must not survive into a re-created stream of the same name.
	db.dropSidecar(name)
	db.mu.Lock()
	if db.dir[name] == st {
		delete(db.dir, name)
	}
	db.mu.Unlock()
	return nil
}

// destroyColdStream removes the on-disk files of a stream that has no
// hydrated engine. The directory commit already removed the stream, so a
// failure (or crash) mid-removal leaves only orphans for the next Open.
func (db *DB) destroyColdStream(name string) error {
	files, err := db.dev.List(streamNamespacePrefix + "/" + name + "/")
	if err != nil {
		return fmt.Errorf("hsq: drop stream %q: %w", name, err)
	}
	for _, f := range files {
		if err := db.dev.Remove(f); err != nil {
			return fmt.Errorf("hsq: drop stream %q: %w", name, err)
		}
	}
	return nil
}

// saveManifestLocked writes the stream directory atomically, excluding
// tombstoned entries (their removal is the commit a DropStream already
// made). Caller holds db.mu.
func (db *DB) saveManifestLocked() error {
	m := dbManifest{Version: dbManifestVersion}
	for name, st := range db.dir {
		if st.dropped {
			continue
		}
		m.Streams = append(m.Streams, name)
	}
	sort.Strings(m.Streams)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("hsq: marshal DB manifest: %w", err)
	}
	if err := db.dev.WriteMeta(dbManifestName, data); err != nil {
		return fmt.Errorf("hsq: write DB manifest: %w", err)
	}
	return nil
}

// eachHydrated pins every hydrated stream, calls f on each — all of them,
// returning the first error — and releases them. DB-wide barriers and stats
// (Checkpoint, WaitIdle, SchedulerStats) walk the directory through it, so
// eviction cannot close an engine under f. Cold streams need no work:
// eviction sealed them durably, and never-touched streams were durable to
// begin with. A closed DB has nothing hydrated and returns ErrClosed.
func (db *DB) eachHydrated(f func(*Stream, *engine) error) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	var pinned []*Stream
	var engs []*engine // read under db.mu: Close detaches even pinned engines
	for _, st := range db.dir {
		if st.eng != nil && !st.dropped {
			st.pins++
			pinned = append(pinned, st)
			engs = append(engs, st.eng)
		}
	}
	db.mu.Unlock()
	var first error
	for i, st := range pinned {
		if err := f(st, engs[i]); err != nil && first == nil {
			first = err
		}
	}
	for _, st := range pinned {
		db.release(st)
	}
	return first
}

// Checkpoint persists every hydrated stream's manifest plus the stream
// directory, each write atomic on the backend, so a multi-stream daemon
// can restart cleanly with Open. Cold (evicted or never-touched) streams
// are already durable and cost nothing. In-flight (unloaded) stream batches
// are volatile by design (replayed or lost, exactly as a DSMS would) — but
// steps already sealed by EndStep are durable whether or not their
// background installs have run. Checkpoint does not wait for the maintenance
// backlog; call WaitIdle first for a fully-merged on-disk layout.
func (db *DB) Checkpoint() error {
	err := db.eachHydrated(func(st *Stream, eng *engine) error {
		if err := eng.Checkpoint(); err != nil {
			return fmt.Errorf("hsq: checkpoint stream %q: %w", st.name, err)
		}
		// The stream's durable state is known here: refresh its sidecar.
		sum, _ := eng.ScopedSummary(query.Scope{}) // nil if a racing Close got there first
		db.refreshSidecar(st.name, sum)
		return nil
	})
	if err != nil {
		return err
	}
	db.mu.Lock()
	if err := db.saveManifestLocked(); err != nil {
		db.mu.Unlock()
		return err
	}
	db.mu.Unlock()
	return db.dev.Sync()
}

// Close seals every hydrated stream — maintenance backlog drained,
// manifest committed — marks the DB closed, stops the background scheduler
// and releases the shared backend (when it implements io.Closer).
//
// The DB is marked closed first and exactly once: even if sealing a stream
// fails, every other stream is still sealed, the directory is still
// committed, and every later operation (and Lookup) observes the closed
// state. All failures along the way are joined into the returned error.
// Close is idempotent; Destroy-like cleanup is per-stream via DropStream.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	var names []string
	var engs []*engine
	for name, st := range db.dir {
		db.forgetColdLocked(st)
		if st.eng != nil {
			names = append(names, name)
			engs = append(engs, st.eng)
			// Detach now, under db.mu: once the DB is closed, nothing may
			// see these engines as hydrated — DirectoryStats must not
			// report stale counts and eachHydrated walks racing Close
			// must not pin engines that are about to be sealed.
			st.eng = nil
		}
	}
	db.hydrated = 0
	db.mu.Unlock()

	var errs []error
	for i, eng := range engs {
		if err := db.sealCold(names[i], eng); err != nil {
			errs = append(errs, fmt.Errorf("hsq: close stream %q: %w", names[i], err))
		}
	}
	if db.sched != nil {
		db.sched.close()
	}
	db.mu.Lock()
	if err := db.saveManifestLocked(); err != nil {
		errs = append(errs, err)
	}
	db.mu.Unlock()
	if err := db.dev.Sync(); err != nil {
		errs = append(errs, err)
	}
	if c, ok := db.dev.Backend().(io.Closer); ok {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// DiskStats returns the device-wide aggregate I/O counters: the sum of
// every stream's Stream.DiskStats (metadata I/O is never counted).
func (db *DB) DiskStats() IOStats { return db.dev.Stats() }

// DirectoryStats describes the stream directory's hydration state.
type DirectoryStats struct {
	// Registered is the number of streams in the directory; Hydrated of
	// those currently hold a memory-resident engine.
	Registered int
	Hydrated   int
	// MaxHydrated echoes Options.MaxHydratedStreams (0 = unlimited).
	MaxHydrated int
	// Hydrations and Evictions count engine loads and LRU seals since
	// Open. Hydrations > Registered means streams have cycled.
	Hydrations uint64
	Evictions  uint64
	// SummaryFallbacks counts the summary reads of an evicted stream that
	// its sidecar could not answer (missing, refused by the decoder, or
	// stale against the manifest) and that hydrated the stream instead.
	SummaryFallbacks uint64
	// ColdSummaryBytes is held by cold streams' validated sidecar summaries
	// now (8 B a value, ≤ 32 MiB). SidecarDecodes counts cold reads that
	// decoded a SUMMARY.bin instead: first reads, over-budget reads, refusals.
	ColdSummaryBytes int64
	SidecarDecodes   uint64
}

// DirectoryStats returns the directory's registered/hydrated breakdown and
// the cumulative hydration/eviction counters.
func (db *DB) DirectoryStats() DirectoryStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	registered := 0
	for _, st := range db.dir {
		if !st.dropped { // tombstones of in-flight drops are not registered
			registered++
		}
	}
	return DirectoryStats{
		Registered:       registered,
		Hydrated:         db.hydrated,
		MaxHydrated:      db.opts.MaxHydratedStreams,
		Hydrations:       db.hydrations,
		Evictions:        db.evictions,
		SummaryFallbacks: db.summaryFallbacks,
		ColdSummaryBytes: db.coldBytes,
		SidecarDecodes:   db.sidecarDecodes.Load(),
	}
}

// CacheBlocks returns the number of blocks currently resident in the
// shared cache.
func (db *DB) CacheBlocks() int { return db.dev.CacheBlocks() }

// MaintenanceMode returns the resolved maintenance mode every stream of
// this DB runs under ("sync", "async" or "manual") — the value after
// Options defaulting, so callers never re-derive the resolution rule.
func (db *DB) MaintenanceMode() string { return db.opts.Maintenance }
