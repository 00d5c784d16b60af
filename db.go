package hsq

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/partition"
)

// ErrUnknownStream is returned (wrapped, with the name) by operations on a
// stream the DB does not host; test with errors.Is.
var ErrUnknownStream = errors.New("hsq: unknown stream")

// streamNamespacePrefix is where stream state lives on the device:
// streams/<name>/{MANIFEST.json, part-*.dat}. A stream is registered exactly
// when its namespace holds a MANIFEST.json; the device keeps no other list
// of streams.
const streamNamespacePrefix = "streams"

// legacyDirectoryName is the root stream directory earlier releases kept
// beside the per-stream manifests; Open refuses a device that still holds
// one.
const legacyDirectoryName = "DB.json"

// DB hosts many named quantile streams over one shared device: one storage
// backend, one block-cache budget, one manifest root. Each stream is the
// paper's full engine (Observe/EndStep/Quantile/Rank/Window surface, see
// Stream) running on a namespaced view of the device — a single-stream
// deployment is a DB with one stream — so streams are isolated on disk and in
// per-stream I/O accounting while competing for — and benefiting from —
// the same cache. DB is safe for concurrent use.
//
// The stream directory distinguishes registered from hydrated streams:
// every stream whose namespace holds a store manifest is registered (a
// lightweight descriptor, ~100 bytes), but an engine — live step batch,
// partition summaries, maintenance state — is hydrated only on first touch,
// outside the DB lock, with per-name singleflight. With Options.MaxHydratedStreams set,
// idle streams are sealed (durably checkpointed) and evicted, cheapest to
// rehydrate first, so resident memory tracks the hot set, not the directory
// size. Open loads only the directory: restart cost is O(registered
// streams), with each stream's summary-rebuild scan deferred to its first
// touch. An evicted stream holds the summary its eviction built (or, past
// the budget, a cold read decodes it from the checksummed SUMMARY.bin), and
// its next hydration takes it in place of that scan.
//
//	db, err := hsq.Open(hsq.Options{Epsilon: 0.01, Dir: dir, CacheBlocks: 4096})
//	lat, err := db.Stream("api.latency")
//	lat.Observe(17)
//	...
//	p99, _, err := lat.Quantile(0.99)
type DB struct {
	mu   sync.Mutex
	opts Options
	dev  *disk.Manager // root view: aggregate stats, shared cache
	dir  map[string]*Stream
	seq  uint64 // touch clock, incremented on every touch
	// inflation is GreedyDual's L, raised to each victim's priority.
	inflation uint64

	hot              map[*Stream]struct{} // streams with eng != nil: eviction's candidates
	hydrations       uint64
	hydratedValues   uint64 // the hydrated engines' histories at their loads
	scannedValues    uint64 // of those, values the summary-rebuild scans read
	evictions        uint64
	summaryFallbacks uint64        // cold summary reads that had to hydrate
	sidecarDecodes   atomic.Uint64 // cold summary reads that decoded SUMMARY.bin
	sidecarWrites    atomic.Uint64 // SUMMARY.bin files written
	coldBytes        int64         // held cold summaries, at most coldBudget
	coldBudget       int64         // coldSummaryBudget (lowered by internal tests)
	closed           bool
}

// Open opens (or creates) a multi-stream DB on the configured device. Every
// stream whose namespace holds a store manifest is registered — but not
// hydrated: each stream's engine (and, on its first hydration, its
// one-sequential-scan summary rebuild) is loaded lazily on the stream's
// first touch, so Open costs one
// listing of the stream namespaces, not O(total data), and a daemon with a
// huge, mostly-cold stream directory restarts in constant-ish time.
func Open(opts Options) (*DB, error) {
	full, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	dev, err := newDevice(full)
	if err != nil {
		return nil, err
	}
	// Layouts of earlier releases that this DB would misread are refused.
	// Every release that wrote one wrote raw or version-1 partitions too,
	// which no stream of this release reads, so the one upgrade is
	// README's: re-ingest with this release.
	switch {
	case dev.Exists(legacyDirectoryName):
		// The stream directory is the per-stream manifests now; opening over
		// the root file would ignore what it lists.
		return nil, fmt.Errorf("hsq: %s holds a %s stream directory from an earlier release; to upgrade, re-ingest its streams' source data into a new directory with this release",
			full.Dir, legacyDirectoryName)
	case dev.Exists(manifestName):
		// A root-level store manifest is a single-stream warehouse (written by
		// releases that had a standalone engine). Opening a DB over it would
		// silently ignore all its data.
		return nil, fmt.Errorf("hsq: %s holds a legacy single-stream warehouse (root %s); to upgrade, re-ingest its source data into a new directory with this release",
			full.Dir, manifestName)
	}
	db := &DB{opts: full, dev: dev, dir: make(map[string]*Stream), hot: make(map[*Stream]struct{}), coldBudget: coldSummaryBudget}
	files, err := dev.List(streamNamespacePrefix + "/")
	if err != nil {
		return nil, fmt.Errorf("hsq: list stream namespaces: %w", err)
	}
	for _, f := range files {
		if name, file, ok := splitStreamFile(f); ok && file == manifestName {
			db.dir[name] = &Stream{name: name, db: db}
		}
	}
	// A namespace without a manifest is crash debris: a DropStream that
	// removed the manifest but died before its sweep, or files of a stream
	// whose registration never became durable. Per the durability contract
	// such a stream has an empty prefix of completed steps — its files are
	// orphans.
	for _, f := range files {
		if name, _, ok := splitStreamFile(f); ok && db.dir[name] == nil {
			if err := dev.Remove(f); err != nil {
				return nil, fmt.Errorf("hsq: collect unregistered stream %q: %w", name, err)
			}
		}
	}
	return db, nil
}

// splitStreamFile splits a root-view key streams/<name>/<file> into the
// stream's name and the file's name within its namespace.
func splitStreamFile(key string) (name, file string, ok bool) {
	rel, ok := strings.CutPrefix(key, streamNamespacePrefix+"/")
	if !ok {
		return "", "", false
	}
	return strings.Cut(rel, "/")
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

// touchLocked records a use of the stream for eviction ordering: its
// priority restarts from the current inflation value. Caller holds db.mu.
func (db *DB) touchLocked(s *Stream) {
	db.seq++
	s.seq = db.seq
	s.base = db.inflation
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
// stream's manifest load and summary-rebuild scan blocked the whole DB. The
// first hydration since Open, and one after an evicted engine failed a
// write (Stream.swept), sweeps orphans and scans every partition; any other
// takes the summary the cold stream held — its eviction's, or one a cold
// read decoded from SUMMARY.bin — and reads no partition.
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
	// A held summary feeds the hydration unless it must scan: the scan is
	// the check of the partitions' order (coldsummary.go).
	var held []core.PartSummary
	if st.swept && st.cold != nil {
		held = st.cold.Parts
	}
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
	fresh, err := newEngineOn(view, db.opts, streamNamespacePrefix+"/"+st.name, !st.swept, held)

	db.mu.Lock()
	if serr := st.errLocked(); serr != nil {
		db.mu.Unlock()
		// The DB closed (or the stream was unregistered) while we hydrated:
		// that is the answer, whatever the load found. Nothing was mutated,
		// so the engine goes without a commit.
		if fresh != nil {
			fresh.shut()
		}
		return nil, serr
	}
	if err != nil {
		db.mu.Unlock()
		return nil, fmt.Errorf("hsq: hydrate stream %q: %w", st.name, err)
	}
	st.eng, st.swept = fresh, true
	db.hot[st] = struct{}{}
	db.forgetColdLocked(st) // writes may now change the durable state it mirrors
	st.pins++
	db.hydrations++
	db.hydratedValues += uint64(fresh.HistCount())
	db.scannedValues += uint64(fresh.store.Scanned())
	// Make room first, then touch: the stream's priority starts from the
	// inflation its victims leave behind.
	victims := db.evictVictimsLocked()
	db.touchLocked(st)
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

// evictVictimsLocked selects the hydrated, unpinned streams cheapest to
// bring back until the hydrated count is back within MaxHydratedStreams
// (GreedyDual, Young 1994): the lowest touch-time inflation plus history
// goes first, the oldest touch on a tie.
// Streams with a live observe buffer are not candidates at all — evictOne
// would refuse them anyway, and selecting them would burn the whole
// victim quota on unevictable streams while sealed idle engines sit past
// the budget. Caller holds db.mu. Selection raises the inflation to the
// victims' priority; the actual seal-and-close runs in evict, outside db.mu.
func (db *DB) evictVictimsLocked() []*Stream {
	budget := db.opts.MaxHydratedStreams
	if budget <= 0 || len(db.hot) <= budget || db.closed {
		return nil
	}
	type cand struct {
		st   *Stream
		prio uint64
	}
	var cands []cand
	for st := range db.hot {
		if st.pins == 0 && st.eng.StreamCount() == 0 {
			cands = append(cands, cand{st, st.base + uint64(st.eng.HistCount())})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		return cmp.Or(cmp.Compare(a.prio, b.prio), cmp.Compare(a.st.seq, b.st.seq))
	})
	need := min(len(db.hot)-budget, len(cands))
	victims := make([]*Stream, need)
	for i := range victims {
		victims[i] = cands[i].st
		db.inflation = max(db.inflation, cands[i].prio)
	}
	return victims
}

// evict seals and dehydrates the victim streams, one at a time.
func (db *DB) evict(victims []*Stream) {
	for _, st := range victims {
		db.evictOne(st)
	}
}

// evictOne seals one idle stream back to its on-disk manifest and drops
// its engine. Sealing is the stream's checkpoint barrier, closing the
// engine: it settles, commits the manifest and waits out pinned queries,
// so an evicted stream loses nothing — its next touch rehydrates the exact
// same state. Streams that would lose state are skipped: a pinned stream
// (in-flight operation) or a non-empty observe buffer (only EndStep may cut
// a batch). The budget is therefore a target the DB converges to, not a
// hard cap.
func (db *DB) evictOne(st *Stream) {
	st.opMu.Lock()
	defer st.opMu.Unlock()
	db.mu.Lock()
	eng := st.eng
	if db.closed || st.dropped || eng == nil || st.pins > 0 ||
		db.opts.MaxHydratedStreams <= 0 || len(db.hot) <= db.opts.MaxHydratedStreams {
		db.mu.Unlock()
		return
	}
	if eng.StreamCount() > 0 {
		// A live observe buffer is volatile only across process death;
		// sealing here would silently drop it. Keep the stream resident.
		db.mu.Unlock()
		return
	}
	// Detach before closing: a concurrent fast-path acquire either pinned
	// the stream before this point (pins > 0 above, so we bailed) or finds
	// eng == nil and waits on opMu for the eviction to finish.
	st.eng = nil
	delete(db.hot, st)
	db.evictions++
	db.mu.Unlock()

	// The stream is durably sealed and cold once this returns, holding the
	// summary of its sealed state (or, past the budget, with it written to
	// SUMMARY.bin) in place of any a read held during the seal: glob and
	// group-by queries answer it without rehydrating, and so does its next
	// hydration's summary load.
	err := db.checkpoint(st, eng, true)
	db.mu.Lock()
	defer db.mu.Unlock()
	if err == nil && eng.store.MayHoldOrphans() {
		st.swept = false
	}
	if err != nil && !db.closed && !st.dropped {
		// The engine may be half-closed but its state is still durable up
		// to the failure; restore it so nothing is lost and surface the
		// failure on the next operation that touches the stream — unless
		// the DB closed (or the stream dropped) meanwhile, in which case
		// nothing will ever close it again and restoring would only make a
		// closed DB report a hydrated engine.
		db.forgetColdLocked(st)
		st.eng = eng
		db.hot[st] = struct{}{}
		db.evictions--
	}
}

// Stream returns the named stream, creating it on first use. The returned
// *Stream is shared: every caller asking for the same name gets the same
// stream. Creating a stream registers it — one write of its empty store
// manifest under the DB lock, durable at the next device sync (the stream's
// first EndStep commit at the latest). The call then hydrates the stream's
// engine if it is cold; the hydration (manifest read, plus a summary-rebuild
// scan unless the stream holds the summary its eviction built) runs outside
// the DB lock, so a slow cold open never blocks operations on other
// streams.
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
			// The name is tombstoned: a DropStream is closing the stream or
			// sweeping its namespace under e.opMu. Re-creating the name now
			// would let the new stream's files fall to the in-flight sweep.
			// Wait the drop out, then retry.
			db.mu.Unlock()
			e.opMu.Lock() // parks until the dropper finishes
			db.mu.Lock()
			failed := db.dir[name] == e && e.dropped
			db.mu.Unlock()
			e.opMu.Unlock()
			if failed {
				// The sweep failed and left its tombstone: the namespace holds
				// partially deleted files, so the name stays unavailable until
				// the next Open collects them.
				return nil, fmt.Errorf("hsq: stream %q dropped: %w", name, ErrClosed)
			}
			continue
		}
		if !ok {
			err := ValidStreamName(name)
			if err == nil {
				e, err = db.registerLocked(name)
			}
			if err != nil {
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
			// Best-effort unregistration: the stream never hydrated, so its
			// manifest is all it has on the device.
			db.mu.Lock()
			if db.dir[name] == st && st.eng == nil && st.pins == 0 && !st.dropped {
				db.unregisterLocked(st)
			}
			db.mu.Unlock()
		}
		return nil, err
	}
	db.release(st)
	return st, nil
}

// registerLocked registers a stream the directory lacks: it writes the
// stream's empty store manifest — atomic on the backend, durable at the
// next device sync — and adds the directory entry. Caller holds db.mu.
func (db *DB) registerLocked(name string) (*Stream, error) {
	ns := streamNamespacePrefix + "/" + name
	if err := partition.CreateManifest(db.dev, streamManifestPath(name), storeConfig(db.opts, db.opts.Epsilon/2, ns)); err != nil {
		return nil, fmt.Errorf("hsq: register stream %q: %w", name, err)
	}
	st := &Stream{name: name, db: db}
	db.dir[name] = st
	return st, nil
}

// unregisterLocked takes a created stream that never hydrated back out of
// the directory. It tombstones the entry before deleting it: a hydration of
// it we raced (another caller lost the singleflight, re-entered, and is
// loading outside db.mu right now) re-checks dropped before installing its
// engine, so it discards the engine instead of hydrating into a stream no
// longer in the directory — which would leak it past eviction and Close
// while a later Stream(name) doubled the namespace. Caller holds db.mu.
func (db *DB) unregisterLocked(st *Stream) {
	st.dropped = true
	delete(db.dir, st.name)
	db.dev.Remove(streamManifestPath(st.name)) //nolint:errcheck // one left behind registers an empty stream at the next Open
}

// RegisterStreams registers the named streams in the directory without
// hydrating any of them: the bulk-provisioning path for large fleets
// (per-user or per-sensor stream sets). Each name is registered by its own
// manifest write, so registering n streams writes n small files however
// many are registered already, and the call ends with one device sync,
// after which every name is durable. Already-registered names are skipped,
// so the call is idempotent. A name whose DropStream is still in flight is
// rejected (retry once the drop completes). An invalid name registers
// nothing. Otherwise names are registered one at a time: a conflict or write
// error — or a crash — part-way through leaves the names before it
// registered, and a retry of the call registers the rest (and repeats the
// sync a failed one did not finish).
func (db *DB) RegisterStreams(names ...string) error {
	for _, name := range names {
		if err := ValidStreamName(name); err != nil {
			return err
		}
	}
	for _, name := range names {
		db.mu.Lock()
		var err error
		st, ok := db.dir[name]
		switch {
		case db.closed:
			err = ErrClosed
		case ok && st.dropped:
			// A drop in flight: registering over it would hand the new
			// stream a namespace still being swept. Stream waits such a drop
			// out; a bulk register reports the conflict.
			err = fmt.Errorf("hsq: stream %q is being dropped; retry when the drop completes", name)
		case !ok:
			_, err = db.registerLocked(name)
		}
		db.mu.Unlock()
		if err != nil {
			return err
		}
	}
	// The device-wide durability sync runs outside db.mu: a slow flush must
	// not stall every other stream's fast-path acquire.
	return db.dev.Sync()
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
	slices.Sort(out)
	return out
}

// DropStream destroys the named stream: its manifest, partitions and
// sidecar are removed from the device and it disappears from the stream
// directory.
//
// The stream's manifest is its registration, so removing it is the drop's
// commit. The engine is closed first — write path, maintenance and pinned
// queries drained, no commit of its own — so no EndStep, merge or
// checkpoint can write the manifest back after the commit and register the
// stream again at the next Open. Then the removal is made durable, and only
// then is the rest of the namespace swept: a crash mid-sweep leaves a
// namespace without a manifest, which the next Open collects. If the commit
// fails, the manifest is written back and the stream stays (cold; its live
// step, volatile by contract, is lost). Until the sweep finishes, the entry
// stays in the directory as a tombstone claiming the name (Stream waits,
// RegisterStreams rejects). If the sweep itself fails, the tombstone — and
// the error — stand, and the name stays unavailable until the next Open
// collects the debris.
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
	// callers waiting to re-create the name until the drop completes.
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
	// Tombstone rather than delete: the entry keeps the name claimed until
	// the namespace is swept, and no new operation reaches the engine.
	st.dropped = true
	db.forgetColdLocked(st)
	eng := st.eng
	st.eng = nil
	delete(db.hot, st)
	db.mu.Unlock()
	if eng != nil {
		eng.shut()
	}
	if err := db.commitDrop(name); err != nil {
		db.mu.Lock()
		st.dropped = false
		db.mu.Unlock()
		return err
	}
	if err := db.sweepNamespace(name); err != nil {
		return err
	}
	db.mu.Lock()
	if db.dir[name] == st {
		delete(db.dir, name)
	}
	db.mu.Unlock()
	return nil
}

// sweepNamespace removes every file left in a dropped stream's namespace,
// hot or cold: partitions, metadata temporaries, the sidecar.
func (db *DB) sweepNamespace(name string) error {
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

// commitDrop durably removes the stream's manifest. The device-wide
// durability sync runs outside db.mu — a slow flush must not stall every
// other stream's fast-path acquire; the caller's opMu keeps the drop
// serialized against this stream. If the sync fails, the removal may still
// become durable with any later sync, so the manifest is written back.
func (db *DB) commitDrop(name string) error {
	path := streamManifestPath(name)
	data, err := db.dev.ReadMeta(path)
	if err == nil {
		err = db.dev.Remove(path)
	}
	if err != nil {
		return fmt.Errorf("hsq: drop stream %q: %w", name, err)
	}
	if err := db.dev.Sync(); err != nil {
		return errors.Join(fmt.Errorf("hsq: drop stream %q: %w", name, err), db.dev.WriteMeta(path, data))
	}
	return nil
}

// eachHydrated pins every hydrated stream, calls f on each — all of them,
// returning the first error — and releases them. DB.Checkpoint walks the
// directory through it, so eviction cannot close an engine under f. Cold
// streams need no work: eviction sealed them durably, and never-touched
// streams were durable to begin with. A closed DB has nothing hydrated and returns ErrClosed.
func (db *DB) eachHydrated(f func(*Stream, *engine) error) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	var pinned []*Stream
	var engs []*engine // read under db.mu: Close detaches even pinned engines
	for st := range db.hot {
		st.pins++
		pinned = append(pinned, st)
		engs = append(engs, st.eng)
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

// Checkpoint passes every hydrated stream through its barrier
// (Stream.SyncMaintenance): a step whose level-0 write failed is written,
// every merge a failure left due runs, the manifest is committed — each
// write atomic on the backend — and the sidecar refreshed; an evicted
// stream's held summary gets the sidecar its eviction deferred. It ends
// with a device sync that also makes every registration durable, so a
// multi-stream daemon can restart cleanly with Open. Once it returns nil,
// every step EndStep sealed is durable and no merge is due. Cold (evicted
// or never-touched) streams are already settled and durable. In-flight (unloaded) stream batches are volatile by design
// (replayed or lost, exactly as a DSMS would). It tries every stream and
// returns the first failure.
func (db *DB) Checkpoint() error {
	err := db.eachHydrated(func(st *Stream, eng *engine) error {
		if err := db.checkpoint(st, eng, false); err != nil {
			return fmt.Errorf("hsq: checkpoint stream %q: %w", st.name, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	db.saveColdSummaries()
	return db.dev.Sync()
}

// Close writes the SUMMARY.bin of every evicted stream whose held summary
// has none yet, seals every hydrated stream — settled, manifest committed,
// sidecar refreshed — marks the DB closed and releases the shared backend
// (when it implements io.Closer).
//
// The DB is marked closed first and exactly once: even if sealing a stream
// fails, every other stream is still sealed, the device is still synced,
// and every later operation (and Lookup) observes the closed state. All
// failures along the way are joined into the returned error. Close is
// idempotent; Destroy-like cleanup is per-stream via DropStream.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	var sts, unsaved []*Stream
	var engs []*engine
	var sums []*core.ShardSummary
	for _, st := range db.dir {
		if st.coldUnsaved {
			unsaved, sums = append(unsaved, st), append(sums, st.cold)
		}
		db.forgetColdLocked(st)
		if st.eng != nil {
			sts = append(sts, st)
			engs = append(engs, st.eng)
			// Detach now, under db.mu: once the DB is closed, nothing may
			// see these engines as hydrated — DirectoryStats must not
			// report stale counts and eachHydrated walks racing Close
			// must not pin engines that are about to be sealed.
			st.eng = nil
		}
	}
	clear(db.hot)
	db.mu.Unlock()

	for i, st := range unsaved {
		db.writeSidecar(st.name, sums[i]) //nolint:errcheck // advisory: queries fall back to hydration
	}
	var errs []error
	for i, eng := range engs {
		if err := db.checkpoint(sts[i], eng, true); err != nil {
			errs = append(errs, fmt.Errorf("hsq: close stream %q: %w", sts[i].name, err))
		}
	}
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
	// Hydrations and Evictions count engine loads and budget seals (cheapest
	// to rehydrate first) since Open. Hydrations > Registered means streams
	// have cycled. HydratedValues is each engine's history at its load, the
	// cost eviction's priority charges; ScannedValues is the part of it the
	// summary-rebuild scans read back, none where a hydration took the
	// summary its stream's eviction held.
	Hydrations     uint64
	Evictions      uint64
	HydratedValues uint64
	ScannedValues  uint64
	// SummaryFallbacks counts the summary reads of an evicted stream that
	// its sidecar could not answer (missing, refused by the decoder, or
	// stale against the manifest) and that hydrated the stream instead.
	SummaryFallbacks uint64
	// ColdSummaryBytes is held by cold streams' summaries now (their
	// evictions' or validated sidecars', 8 B a value, ≤ 32 MiB).
	// SidecarDecodes counts cold reads that decoded a SUMMARY.bin instead:
	// first reads of a stream holding nothing, over-budget reads, refusals.
	// SidecarWrites counts the SUMMARY.bin files written.
	ColdSummaryBytes int64
	SidecarDecodes   uint64
	SidecarWrites    uint64
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
		Hydrated:         len(db.hot),
		MaxHydrated:      db.opts.MaxHydratedStreams,
		Hydrations:       db.hydrations,
		Evictions:        db.evictions,
		HydratedValues:   db.hydratedValues,
		ScannedValues:    db.scannedValues,
		SummaryFallbacks: db.summaryFallbacks,
		ColdSummaryBytes: db.coldBytes,
		SidecarDecodes:   db.sidecarDecodes.Load(),
		SidecarWrites:    db.sidecarWrites.Load(),
	}
}

// CacheBlocks returns the number of blocks currently resident in the
// shared cache.
func (db *DB) CacheBlocks() int { return db.dev.CacheBlocks() }
