package hsq

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/query"
)

// Cold summaries let glob and group-by queries answer over evicted streams
// without hydrating them. An eviction's checkpoint ends with the summary of
// the stream's installed partitions (all its state: an evictable stream has
// no live or sealed step), and the cold stream holds it: reads narrow it
// with no I/O or decode, and the next hydration takes each partition's
// summary from it instead of rescanning the partition (partition.LoadStore).
//
// The summary persists as SUMMARY.bin in the stream's namespace: a
// core.ShardSummary in its one encoding (internal/core/snapshot.go), the
// bytes the stream would send a peer, checksummed. A hydrated stream's
// checkpoint writes it at once; an evicted stream's is written at the
// barrier (DB.Checkpoint, the start of Close), or at once when the budget
// cannot hold it. A hydration that takes a held summary writes nothing: its
// engine checkpoints again. A cold stream that holds nothing (after Open,
// past the budget) decodes and checks the file at its first scoped read —
// metadata I/O, uncounted in IOStats — and holds that.
//
// One rule decides whether a held summary feeds the next hydration, whoever
// built it: Stream.swept. The checksum vouches for the file's bytes, not for
// the partitions' order on disk, which only a scan checks. So the first
// hydration after Open, and one after an evicted engine failed a write,
// scan every partition, which also refuses a partition that is not sorted
// on disk.
//
// Freshness is structural, not best-effort: the parts carry their step
// ranges, and a cold read first cross-checks the per-partition (count,
// step-range) layout against the stream's own committed MANIFEST.json. Any
// divergence — a crash after EndSteps or an eviction that outran the last
// barrier, a merge that reshaped partitions, a drop/re-create, a file an
// earlier build or another ε wrote — fails the check and the query falls
// back to a one-time hydration (counted in DirectoryStats.SummaryFallbacks),
// after which the next barrier rewrites the sidecar. A missing
// sidecar reads as zero spans, which the check accepts only against a
// manifest that has sealed no step: a stream registered but never sealed
// answers without hydrating.
//
// A held summary stays fresh because a cold stream's durable state changes
// only through a hydration (every write acquires first), and a summary is
// held only under the stream's opMu, which hydration, eviction and drop
// take too: a read decodes, checks and holds the file with none of them
// between. Hydrating forgets the summary, as do a drop and Close. Held
// summaries share coldSummaryBudget, first come; a read past it decodes its
// file every time, as if nothing were held.
//
// Scope selection is not done here: coldScope hands the held parts' end
// steps to query.Scope.Select — the selector a hydrated engine's snapshot
// goes through (scope.go) — and keeps the range it returns, so a stream
// answers a scope the same, error text included, whether it is hydrated or
// evicted. DB.ScopedSummary is the one entry: plan members (query.Exec
// reads the DB as its Source) and a peer's SummaryReq (Stream.Summary) both
// come through it.

// sidecarName is the cold-summary metadata file inside a stream's
// namespace, next to its MANIFEST.json.
const sidecarName = "SUMMARY.bin"

// sidecarPath returns the sidecar's key on the DB's root device view.
func sidecarPath(stream string) string {
	return streamNamespacePrefix + "/" + stream + "/" + sidecarName
}

// streamManifestPath returns a stream's store-manifest key on the root view.
func streamManifestPath(stream string) string {
	return streamNamespacePrefix + "/" + stream + "/" + manifestName
}

// refreshSidecar brings a stream's sidecar in line with sum, its engine's
// full-scope summary at a moment its durable state is known: the installed
// partitions' summary is written — sum without its stream-side pieces (an
// open step the commit did not make durable), N their sum — so it matches
// the manifest the same commit made durable and a cold read after a clean
// Close needs no hydration. Metadata write — atomic on the backend,
// uncounted in I/O stats, advisory; durability rides the next device sync
// like the manifests it mirrors.
func (db *DB) refreshSidecar(stream string, sum *core.ShardSummary) {
	if len(sum.Pieces) > 0 {
		parts := *sum
		parts.Pieces, parts.N = nil, 0
		for _, p := range parts.Parts {
			parts.N += p.Count
		}
		sum = &parts
	}
	db.writeSidecar(stream, sum) //nolint:errcheck // advisory: queries fall back to hydration
}

// writeSidecar writes sum, a summary of installed partitions only, as the
// stream's SUMMARY.bin.
func (db *DB) writeSidecar(stream string, sum *core.ShardSummary) error {
	db.sidecarWrites.Add(1)
	return db.dev.WriteMeta(sidecarPath(stream), sum.AppendBinary(nil))
}

// coldSummaryBudget caps the summaries cold streams hold, at 8 B a value.
const coldSummaryBudget = 32 << 20

// coldScope narrows held, a cold stream's full-scope summary, to sc, as a
// shallow copy: a held summary is shared and never mutated. The error is a
// query error (bad scope) hydrating would not fix.
func coldScope(held *core.ShardSummary, sc query.Scope) (*core.ShardSummary, error) {
	// The parts are the stream's spans (a cold stream has no sealed backlog
	// and no live buffer); the scope is an index range of them.
	ends := make([]int, len(held.Parts))
	for i, p := range held.Parts {
		ends[i] = p.EndStep
	}
	lo, hi, _, err := sc.Select(ends)
	if err != nil {
		return nil, err
	}
	sum := *held
	sum.Parts, sum.N = held.Parts[lo:hi:hi], 0
	for _, p := range sum.Parts {
		sum.N += p.Count
	}
	return &sum, nil
}

// readSidecar returns a cold stream's full-scope summary as its sidecar
// records it, or nil if the sidecar cannot answer: refused by the decoder,
// foreign, or not the layout of the committed manifest, read first.
func (db *DB) readSidecar(stream string) *core.ShardSummary {
	mraw, err := db.dev.ReadMeta(streamManifestPath(stream))
	if err != nil {
		return nil
	}
	m, err := partition.ParseManifest(mraw)
	if err != nil {
		return nil
	}
	eps1 := db.opts.Epsilon / 2
	sum := &core.ShardSummary{Eps1: eps1} // no sidecar: zero spans
	if raw, err := db.dev.ReadMeta(sidecarPath(stream)); err == nil {
		db.sidecarDecodes.Add(1)
		// A sidecar is installed partitions only, under this DB's ε (a DB
		// reopened with another ε rebuilds its summaries on hydration).
		sum, err = core.DecodeShardSummary(raw)
		if err != nil || len(sum.Pieces) > 0 || sum.Eps1 != eps1 {
			return nil // corrupt or foreign sidecar: hydrate, the next barrier rewrites it
		}
	}
	if !sidecarMatches(sum.Parts, m) {
		return nil // stale vs the committed manifest: hydrate
	}
	return sum
}

// holdCold has cold s hold sum, the summary of its durable state, in place
// of any it held: the one its eviction's checkpoint built (unsaved: its
// SUMMARY.bin is not written yet, saveColdSummaries and Close write it), or
// the one a cold read decoded from that file. The caller holds s.opMu (but
// Close, which finds the DB closed), so no hydration, eviction or drop of s
// lands between what sum was built or checked against and the hold. It
// reports false, s holding nothing, when sum does not fit the budget or the
// DB closed or s was dropped meanwhile.
func (db *DB) holdCold(s *Stream, sum *core.ShardSummary, unsaved bool) bool {
	size := coldSummarySize(sum)
	// One buffer for all the parts' values: the engine captured each at its
	// own time, scattered over the heap, and a plan read over many cold
	// streams walks every value.
	vals := make([]int64, 0, size/8)
	for i, p := range sum.Parts {
		vals = append(vals, p.Values...)
		sum.Parts[i].Values = vals[len(vals)-len(p.Values) : len(vals) : len(vals)]
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.forgetColdLocked(s)
	if db.closed || s.dropped || len(sum.Pieces) > 0 || db.coldBytes+size > db.coldBudget {
		return false
	}
	s.cold, s.coldUnsaved, db.coldBytes = sum, unsaved, db.coldBytes+size
	return true
}

// saveColdSummaries writes SUMMARY.bin for every summary a cold stream
// holds without one, each under the stream's opMu, so no hydration or
// eviction of it lands between the check and the write. A failed write
// leaves the summary unsaved, for the next barrier to retry.
func (db *DB) saveColdSummaries() {
	db.mu.Lock()
	var unsaved []*Stream
	for _, st := range db.dir {
		if st.coldUnsaved {
			unsaved = append(unsaved, st)
		}
	}
	db.mu.Unlock()
	for _, st := range unsaved {
		st.opMu.Lock()
		db.mu.Lock()
		sum := st.cold
		if !st.coldUnsaved {
			sum = nil // hydrated, dropped or closed since
		}
		db.mu.Unlock()
		if sum != nil && db.writeSidecar(st.name, sum) == nil {
			db.mu.Lock()
			st.coldUnsaved = false
			db.mu.Unlock()
		}
		st.opMu.Unlock()
	}
}

// forgetColdLocked drops s's held summary. An unsaved summary is dropped
// only by the hydration that takes it, a drop, and Close, which writes it
// first. Caller holds db.mu.
func (db *DB) forgetColdLocked(s *Stream) {
	if s.cold != nil {
		db.coldBytes -= coldSummarySize(s.cold)
		s.cold, s.coldUnsaved = nil, false
	}
}

// coldSummarySize is what a held summary counts against the budget.
func coldSummarySize(sum *core.ShardSummary) int64 {
	var n int64
	for _, p := range sum.Parts {
		n += 8 * int64(len(p.Values))
	}
	return n
}

// sidecarMatches cross-checks a decoded sidecar's parts against the stream's
// committed store manifest: the same step count (the parts are contiguous,
// so the last one ends at it), no pending sealed batches (a sidecar holds
// installed partitions only), and the identical partition layout — counts
// and step ranges, compared chronologically so manifest level-ordering
// doesn't matter. Merges change the layout without changing steps or
// totals, so the layout itself must be part of the check.
func sidecarMatches(parts []core.PartSummary, m *partition.Manifest) bool {
	steps := 0
	if len(parts) > 0 {
		steps = parts[len(parts)-1].EndStep
	}
	if m.Steps != steps || len(m.Pending) != 0 || len(m.Parts) != len(parts) {
		return false
	}
	sort.Slice(m.Parts, func(i, j int) bool { return m.Parts[i].StartStep < m.Parts[j].StartStep })
	for i, p := range parts {
		if mp := m.Parts[i]; mp.Count != p.Count || mp.StartStep != p.StartStep || mp.EndStep != p.EndStep {
			return false
		}
	}
	return true
}

// ScopedSummary returns one stream's shard summary restricted to a query
// scope — the per-member fetch of the query executor, whose Source a DB is;
// hsqd's cluster mode calls it directly for the streams this node stores.
// Hydrated streams answer from their live engine (one pin, no LRU side
// effects beyond a touch), cold streams from their held summary or sealed
// sidecar without hydrating, and only as a last resort — no or stale
// sidecar — by hydrating once, after which the stream's next eviction holds
// a fresh summary and the next barrier writes it.
func (db *DB) ScopedSummary(name string, sc query.Scope) (*core.ShardSummary, error) {
	db.mu.Lock()
	st, ok := db.dir[name]
	unknown := !db.closed && (!ok || st.dropped)
	db.mu.Unlock()
	if unknown {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStream, name)
	}
	return st.scopedSummary(sc) // a closed DB is reported there, before st is read
}

// scopedSummary is ScopedSummary for a stream already in hand (a Stream
// handle's): a closed DB or a dropped stream is ErrClosed.
func (s *Stream) scopedSummary(sc query.Scope) (*core.ShardSummary, error) {
	db := s.db
	db.mu.Lock()
	eng, err, done := db.tryAcquireLocked(s)
	held := s.cold
	db.mu.Unlock()
	if !done && held == nil {
		// Decode and hold under opMu: a hydration that lands first is taken
		// instead, and a concurrent read of s decodes nothing.
		s.opMu.Lock()
		db.mu.Lock()
		eng, err, done = db.tryAcquireLocked(s)
		held = s.cold
		db.mu.Unlock()
		if !done && held == nil {
			if held = db.readSidecar(s.name); held != nil {
				db.holdCold(s, held, false)
			}
		}
		s.opMu.Unlock()
	}
	if done {
		if err != nil {
			return nil, err
		}
		defer db.release(s)
		return eng.ScopedSummary(sc)
	}
	// Cold: the held summary or the sidecar's — never a hydration.
	if held != nil {
		return coldScope(held, sc)
	}
	// Fallback: hydrate once (counted in DirectoryStats.Hydrations and
	// .SummaryFallbacks).
	db.mu.Lock()
	db.summaryFallbacks++
	db.mu.Unlock()
	eng, err = db.acquire(s)
	if err != nil {
		return nil, err
	}
	defer db.release(s)
	return eng.ScopedSummary(sc)
}
