package hsq

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/query"
)

// Cold-summary sidecars let glob and group-by queries answer over evicted
// streams without hydrating them: whenever a stream's durable state is
// exactly its installed partitions (the state eviction requires — empty
// observe buffer, no sealed backlog), the DB writes the stream's full-scope
// summary to a SUMMARY.bin metadata file in the stream's namespace. The file
// is a core.ShardSummary in its one encoding (internal/core/snapshot.go),
// byte for byte what the stream would send a peer. A scoped summary for a
// cold stream is then one metadata read — metadata I/O is never counted in
// IOStats, so a merged query over a thousand cold sensors costs zero
// RandReads.
//
// Freshness is structural, not best-effort: the parts carry their step
// ranges, and a cold read first cross-checks the per-partition (count,
// step-range) layout against the stream's own committed MANIFEST.json. Any
// divergence — a crash after EndSteps that outran the last checkpoint, a
// merge that reshaped partitions, a drop/re-create, a file an earlier build
// or another ε wrote — fails the check and the query falls back to a
// one-time hydration (counted in DirectoryStats.SummaryFallbacks), after
// which the next eviction or checkpoint rewrites the sidecar. A stream whose
// namespace has no manifest at all has no durable data (registered but never
// sealed), and answers as zero spans without hydrating.
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
// checkpoint) or the stream is dropped. A leftover sidecar is safe — the
// manifest cross-check rejects it — this just avoids pointless fallbacks.
func (db *DB) dropSidecar(stream string) {
	if db.dev.Exists(sidecarPath(stream)) {
		db.dev.Remove(sidecarPath(stream)) //nolint:errcheck // advisory cleanup
	}
}

// storeManifestView is the slice of a stream's MANIFEST.json the sidecar
// cross-check needs: covered steps, pending backlog, and the partition
// layout.
type storeManifestView struct {
	Steps int `json:"steps"`
	Parts []struct {
		Count     int64 `json:"count"`
		StartStep int   `json:"start_step"`
		EndStep   int   `json:"end_step"`
	} `json:"partitions"`
	Pending []json.RawMessage `json:"pending"`
}

// readColdSummary answers a scoped summary for a non-hydrated stream from
// its sidecar. ok=false means the sidecar cannot answer (missing, refused by
// the decoder, or stale) and the caller must fall back to hydration; err is
// a real query error (bad scope) that hydrating would not fix — the
// validated sidecar is exactly the stream's durable state.
func (db *DB) readColdSummary(stream string, sc query.Scope) (sum *core.ShardSummary, ok bool, err error) {
	eps1, eps2 := db.opts.Epsilon/2, db.opts.Epsilon/4
	if !db.dev.Exists(streamManifestPath(stream)) {
		// Registered but never sealed: no durable data by the durability
		// contract, so the stream is zero spans — what a fresh engine holds.
		sum = &core.ShardSummary{Eps1: eps1, Eps2: eps2}
	} else {
		raw, err := db.dev.ReadMeta(sidecarPath(stream))
		if err != nil {
			return nil, false, nil // missing sidecar: hydrate
		}
		// A sidecar is installed partitions only, under this DB's ε (a DB
		// reopened with another ε rebuilds its summaries on hydration).
		sum, err = core.DecodeShardSummary(raw)
		if err != nil || len(sum.Pieces) > 0 || sum.Eps1 != eps1 || sum.Eps2 != eps2 {
			return nil, false, nil // corrupt or foreign sidecar: hydrate, next seal rewrites it
		}
		mraw, err := db.dev.ReadMeta(streamManifestPath(stream))
		if err != nil {
			return nil, false, nil
		}
		var m storeManifestView
		if err := json.Unmarshal(mraw, &m); err != nil || !sidecarMatches(sum.Parts, m) {
			return nil, false, nil // stale vs the committed manifest: hydrate
		}
	}
	// The parts are the stream's spans (a cold stream has no sealed backlog
	// and no live buffer); the scope is an index range of them.
	ends := make([]int, len(sum.Parts))
	for i, p := range sum.Parts {
		ends[i] = p.EndStep
	}
	lo, hi, _, err := sc.Select(ends)
	if err != nil {
		return nil, false, err
	}
	sum.Parts, sum.N = sum.Parts[lo:hi], 0
	for _, p := range sum.Parts {
		sum.N += p.Count
	}
	return sum, true, nil
}

// sidecarMatches cross-checks a decoded sidecar's parts against the stream's
// committed store manifest: the same step count (the parts are contiguous,
// so the last one ends at it), no pending sealed batches (a sidecar holds
// installed partitions only), and the identical partition layout — counts
// and step ranges, compared chronologically so manifest level-ordering
// doesn't matter. Background merges change the layout without changing
// steps or totals, so the layout itself must be part of the check.
func sidecarMatches(parts []core.PartSummary, m storeManifestView) bool {
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
// effects beyond a touch), cold streams from the sealed sidecar without
// hydrating, and only as a last resort — no or stale sidecar — by hydrating
// once, which also queues the stream to have a fresh sidecar written at its
// next eviction or checkpoint.
func (db *DB) ScopedSummary(name string, sc query.Scope) (*core.ShardSummary, error) {
	db.mu.Lock()
	ent, ok := db.dir[name]
	unknown := !db.closed && (!ok || ent.dropped)
	db.mu.Unlock()
	if unknown {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStream, name)
	}
	return db.entrySummary(ent, sc) // a closed DB is reported there, before ent is read
}

// entrySummary is ScopedSummary for a directory entry already in hand (a
// Stream handle's): a closed DB or a dropped stream is ErrClosed.
func (db *DB) entrySummary(ent *streamEntry, sc query.Scope) (*core.ShardSummary, error) {
	db.mu.Lock()
	eng, err, done := db.tryAcquireLocked(ent)
	db.mu.Unlock()
	if done {
		if err != nil {
			return nil, err
		}
		defer db.release(ent)
		return eng.ScopedSummary(sc)
	}
	// Cold: try the sidecar — a pure metadata read, never a hydration.
	if sum, ok, err := db.readColdSummary(ent.name, sc); err != nil {
		return nil, err
	} else if ok {
		return sum, nil
	}
	// Fallback: hydrate once (counted in DirectoryStats.Hydrations and
	// .SummaryFallbacks).
	db.mu.Lock()
	db.summaryFallbacks++
	db.mu.Unlock()
	eng, err = db.acquire(ent)
	if err != nil {
		return nil, err
	}
	defer db.release(ent)
	return eng.ScopedSummary(sc)
}
