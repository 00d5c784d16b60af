package hsq

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/query"
)

// Cold-summary sidecars let glob and group-by queries answer over evicted
// streams without hydrating them: whenever a stream's durable state is
// exactly its installed partitions (the state eviction requires — empty
// observe buffer, no sealed backlog), the DB writes the stream's full-scope
// summary to a SUMMARY.bin metadata file in the stream's namespace. The file
// is a core.ShardSummary in its one encoding (internal/core/snapshot.go),
// byte for byte what the stream would send a peer. A cold stream's first
// scoped read decodes and checks the file — metadata I/O, never counted in
// IOStats, so a merged query over a thousand cold sensors costs zero
// RandReads — and the stream then holds the validated summary: later reads
// narrow it with no I/O, no decode and no manifest parse.
//
// Freshness is structural, not best-effort: the parts carry their step
// ranges, and a cold read first cross-checks the per-partition (count,
// step-range) layout against the stream's own committed MANIFEST.json. Any
// divergence — a crash after EndSteps that outran the last checkpoint, a
// merge that reshaped partitions, a drop/re-create, a file an earlier build
// or another ε wrote — fails the check and the query falls back to a
// one-time hydration (counted in DirectoryStats.SummaryFallbacks), after
// which the next eviction or checkpoint rewrites the sidecar. A missing
// sidecar reads as zero spans, which the check accepts only against a
// manifest that has sealed no step: a stream registered but never sealed
// answers without hydrating.
//
// A held summary stays fresh because a cold stream's durable state changes
// only through a hydration (every write acquires first): hydrating forgets
// it, as do an eviction's end, a drop and Close, each bumping coldEpoch; a
// read holds what it decoded only if the epoch it saw before reading is
// still current. Held summaries share coldSummaryBudget, first come; a read
// past it decodes its file every time, as if nothing were held.
//
// Scope selection is not done here: readColdSummary hands the decoded parts'
// end steps to query.Scope.Select — the selector a hydrated engine's
// snapshot goes through (scope.go) — and keeps the range it returns, so a
// stream answers a scope the same, error text included, whether it is
// hydrated or evicted. DB.ScopedSummary is the one entry: plan members
// (query.Exec reads the DB as its Source) and a peer's SummaryReq
// (Stream.Summary) both come through it.

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
// full-scope summary at a moment its durable state is known: a summary of
// installed partitions only is written, anything else (stream-side pieces,
// or no summary at all) removes the file so cold reads fall back to
// hydration without chasing the manifest cross-check. Metadata write —
// atomic on the backend, uncounted in I/O stats, advisory; durability rides
// the next device sync like the manifests it mirrors.
func (db *DB) refreshSidecar(stream string, sum *core.ShardSummary) {
	if sum == nil || len(sum.Pieces) > 0 {
		db.dropSidecar(stream)
		return
	}
	db.dev.WriteMeta(sidecarPath(stream), sum.AppendBinary(nil)) //nolint:errcheck // advisory: queries fall back to hydration
}

// sealCold closes an engine the directory has already detached and
// publishes the sidecar of the state the close sealed. The summary is
// captured before Close makes the engine unreadable; past the detach no new
// operation can reach the engine, so what is captured is what Close seals —
// and if an operation already in flight does outrun the capture, the cold
// read's manifest cross-check rejects the file and hydrates instead.
func (db *DB) sealCold(stream string, eng *engine) error {
	sum, _ := eng.ScopedSummary(query.Scope{}) // nil from a closed engine: refreshSidecar drops
	if err := eng.Close(); err != nil {
		return err
	}
	db.refreshSidecar(stream, sum)
	return nil
}

// dropSidecar best-effort removes a stream's sidecar: used when the
// stream's durable state stops being representable (pending work at
// checkpoint). A leftover sidecar is safe — the manifest cross-check
// rejects it — this just avoids pointless fallbacks.
func (db *DB) dropSidecar(stream string) {
	if db.dev.Exists(sidecarPath(stream)) {
		db.dev.Remove(sidecarPath(stream)) //nolint:errcheck // advisory cleanup
	}
}

// coldSummaryBudget caps the summaries cold streams hold, at 8 B a value.
const coldSummaryBudget = 32 << 20

// readColdSummary answers a scoped summary for a non-hydrated stream from
// held (s.cold, read under one db.mu with epoch, s.coldEpoch) or its sidecar,
// as a shallow copy: a held summary is shared and never mutated. ok=false
// means the sidecar cannot answer (missing, refused, stale) and the caller
// must hydrate; err is a query error (bad scope) hydrating would not fix.
func (db *DB) readColdSummary(s *Stream, held *core.ShardSummary, epoch uint64, sc query.Scope) (_ *core.ShardSummary, ok bool, _ error) {
	if held == nil {
		if held = db.readSidecar(s.name); held == nil {
			return nil, false, nil
		}
		db.holdColdSummary(s, held, epoch)
	}
	// The parts are the stream's spans (a cold stream has no sealed backlog
	// and no live buffer); the scope is an index range of them.
	ends := make([]int, len(held.Parts))
	for i, p := range held.Parts {
		ends[i] = p.EndStep
	}
	lo, hi, _, err := sc.Select(ends)
	if err != nil {
		return nil, false, err
	}
	sum := *held
	sum.Parts, sum.N = held.Parts[lo:hi:hi], 0
	for _, p := range sum.Parts {
		sum.N += p.Count
	}
	return &sum, true, nil
}

// readSidecar returns a cold stream's full-scope summary as its sidecar
// records it, or nil if the sidecar cannot answer.
func (db *DB) readSidecar(stream string) *core.ShardSummary {
	eps1, eps2 := db.opts.Epsilon/2, db.opts.Epsilon/4
	sum := &core.ShardSummary{Eps1: eps1, Eps2: eps2} // no sidecar: zero spans
	if raw, err := db.dev.ReadMeta(sidecarPath(stream)); err == nil {
		db.sidecarDecodes.Add(1)
		// A sidecar is installed partitions only, under this DB's ε (a DB
		// reopened with another ε rebuilds its summaries on hydration).
		sum, err = core.DecodeShardSummary(raw)
		if err != nil || len(sum.Pieces) > 0 || sum.Eps1 != eps1 || sum.Eps2 != eps2 {
			return nil // corrupt or foreign sidecar: hydrate, next seal rewrites it
		}
	}
	mraw, err := db.dev.ReadMeta(streamManifestPath(stream))
	if err != nil {
		return nil
	}
	m, err := partition.ParseManifest(mraw)
	if err != nil || !sidecarMatches(sum.Parts, m) {
		return nil // unreadable, or stale vs the committed manifest: hydrate
	}
	return sum
}

// holdColdSummary has s hold sum, which readSidecar validated after
// s.coldEpoch read epoch — unless s was forgotten since, is no longer cold,
// holds one already, or sum does not fit the budget.
func (db *DB) holdColdSummary(s *Stream, sum *core.ShardSummary, epoch uint64) {
	size := coldSummarySize(sum)
	db.mu.Lock()
	defer db.mu.Unlock()
	if s.coldEpoch == epoch && s.cold == nil && s.eng == nil && s.errLocked() == nil && db.coldBytes+size <= db.coldBudget {
		s.cold, db.coldBytes = sum, db.coldBytes+size
	}
}

// forgetColdLocked drops s's held summary and bumps its coldEpoch, so no
// read that began before the call holds one. Caller holds db.mu.
func (db *DB) forgetColdLocked(s *Stream) {
	if s.cold != nil {
		db.coldBytes -= coldSummarySize(s.cold)
		s.cold = nil
	}
	s.coldEpoch++
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
// doesn't matter. Background merges change the layout without changing
// steps or totals, so the layout itself must be part of the check.
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
// sidecar — by hydrating once, which also queues the stream to have a fresh
// sidecar written at its next eviction or checkpoint.
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
	held, epoch := s.cold, s.coldEpoch
	db.mu.Unlock()
	if done {
		if err != nil {
			return nil, err
		}
		defer db.release(s)
		return eng.ScopedSummary(sc)
	}
	// Cold: the held summary or the sidecar — never a hydration.
	if sum, ok, err := db.readColdSummary(s, held, epoch, sc); err != nil {
		return nil, err
	} else if ok {
		return sum, nil
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
