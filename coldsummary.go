package hsq

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/enc"
	"repro/internal/query"
)

// Cold-summary sidecars let glob and group-by queries answer over evicted
// streams without hydrating them: whenever a stream's durable state is
// exactly its installed partitions (the state eviction requires — empty
// observe buffer, no sealed backlog), the DB writes the partition
// summaries with their step ranges to a SUMMARY.bin metadata file in the
// stream's namespace. A scoped summary for a cold stream is then one
// metadata read — metadata I/O is never counted in IOStats, so a merged
// query over a thousand cold sensors costs zero RandReads.
//
// Freshness is structural, not best-effort: the sidecar embeds the step
// count and the per-partition (count, step-range) layout, and a cold read
// first cross-checks them against the stream's own committed
// MANIFEST.json. Any divergence — a crash after EndSteps that outran the
// last checkpoint, a merge that reshaped partitions, a drop/re-create —
// fails the check and the query falls back to a one-time hydration, after
// which the next eviction or checkpoint rewrites the sidecar. A stream
// whose namespace has no manifest at all has no durable data (registered
// but never sealed), and answers as zero spans without hydrating.
//
// Scope selection is not done here: scopedFromParts hands the sidecar's
// partition end steps to query.Scope.Select — the selector a hydrated
// engine's snapshot goes through (scope.go) — and copies out the range it
// returns, so a stream answers a scope the same, error text included,
// whether it is hydrated or evicted. DB.ScopedSummary is the one entry:
// plan members (query.Exec reads the DB as its Source) and a peer's
// SummaryReq (Stream.Summary) both come through it.

// sidecarName is the cold-summary metadata file inside a stream's
// namespace, next to its MANIFEST.json.
const sidecarName = "SUMMARY.bin"

// sidecarVersion is the SUMMARY.bin encoding version byte.
const sidecarVersion = 1

// sidecarPart is one installed partition's summary in the sidecar: the
// portable (count, values) pair plus the covered step range, which scoped
// selection needs and core.PartSummary deliberately omits.
type sidecarPart struct {
	Count              int64
	StartStep, EndStep int
	Values             []int64
}

// sidecarPath returns the sidecar's key on the DB's root device view.
func sidecarPath(stream string) string {
	return streamNamespacePrefix + "/" + stream + "/" + sidecarName
}

// streamManifestPath returns a stream's store-manifest key on the root view.
func streamManifestPath(stream string) string {
	return streamNamespacePrefix + "/" + stream + "/" + manifestName
}

// encodeSidecar serializes the sidecar:
//
//	version u8 | uvarint steps | uvarint total | uvarint len(parts)
//	| per part: uvarint count | uvarint start | uvarint end
//	            | uvarint len | delta values
func encodeSidecar(parts []sidecarPart, steps int, total int64) []byte {
	buf := []byte{sidecarVersion}
	buf = binary.AppendUvarint(buf, uint64(steps))
	buf = binary.AppendUvarint(buf, uint64(total))
	buf = binary.AppendUvarint(buf, uint64(len(parts)))
	for _, p := range parts {
		buf = binary.AppendUvarint(buf, uint64(p.Count))
		buf = binary.AppendUvarint(buf, uint64(p.StartStep))
		buf = binary.AppendUvarint(buf, uint64(p.EndStep))
		buf = binary.AppendUvarint(buf, uint64(len(p.Values)))
		buf = enc.AppendDelta(buf, p.Values)
	}
	return buf
}

// decodeSidecar parses a SUMMARY.bin payload, rejecting truncation,
// trailing bytes and counts beyond the input size.
func decodeSidecar(data []byte) (parts []sidecarPart, steps int, total int64, err error) {
	d := enc.NewReader(data)
	if v := d.Byte(); d.Err() == nil && v != sidecarVersion {
		return nil, 0, 0, fmt.Errorf("hsq: cold summary version %d (want %d)", v, sidecarVersion)
	}
	steps = int(d.Uvarint())
	total = int64(d.Uvarint())
	nparts := d.Count()
	for i := 0; i < nparts && d.Err() == nil; i++ {
		parts = append(parts, sidecarPart{
			Count:     int64(d.Uvarint()),
			StartStep: int(d.Uvarint()),
			EndStep:   int(d.Uvarint()),
			Values:    d.Values(),
		})
	}
	if d.Err() != nil {
		return nil, 0, 0, fmt.Errorf("hsq: decode cold summary: %w", d.Err())
	}
	if d.Len() != 0 {
		return nil, 0, 0, fmt.Errorf("hsq: decode cold summary: %d trailing bytes", d.Len())
	}
	return parts, steps, total, nil
}

// writeSidecar persists the stream's cold summary. Metadata write — atomic
// on the backend, uncounted in I/O stats; durability rides the next
// device sync like the manifests it mirrors.
func (db *DB) writeSidecar(stream string, parts []sidecarPart, steps int, total int64) error {
	return db.dev.WriteMeta(sidecarPath(stream), encodeSidecar(parts, steps, total))
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
// its sidecar. ok=false means the sidecar cannot answer (missing or stale)
// and the caller must fall back to hydration; err is a real query error
// (bad scope) that hydrating would not fix — the validated sidecar is
// exactly the stream's durable state.
func (db *DB) readColdSummary(stream string, sc query.Scope) (sum *core.ShardSummary, ok bool, err error) {
	eps1, eps2 := db.opts.Epsilon/2, db.opts.Epsilon/4
	if !db.dev.Exists(streamManifestPath(stream)) {
		// Registered but never sealed: no durable data by the durability
		// contract, so the stream is zero spans — what a fresh engine holds.
		sum, err := scopedFromParts(nil, eps1, eps2, sc)
		return sum, err == nil, err
	}
	raw, err := db.dev.ReadMeta(sidecarPath(stream))
	if err != nil {
		return nil, false, nil // missing sidecar: hydrate
	}
	parts, steps, total, err := decodeSidecar(raw)
	if err != nil {
		return nil, false, nil // corrupt sidecar: hydrate, next seal rewrites it
	}
	var partsTotal int64
	for _, p := range parts {
		partsTotal += p.Count
	}
	if partsTotal != total {
		return nil, false, nil // internal inconsistency: treat as corrupt
	}
	mraw, err := db.dev.ReadMeta(streamManifestPath(stream))
	if err != nil {
		return nil, false, nil
	}
	var m storeManifestView
	if err := json.Unmarshal(mraw, &m); err != nil || !sidecarMatches(parts, steps, m) {
		return nil, false, nil // stale vs the committed manifest: hydrate
	}
	sum, err = scopedFromParts(parts, eps1, eps2, sc)
	return sum, err == nil, err
}

// sidecarMatches cross-checks the sidecar against the stream's committed
// store manifest: same step count, no pending sealed batches (the sidecar
// format represents installed partitions only), and the identical
// partition layout — counts and step ranges, compared chronologically so
// manifest level-ordering doesn't matter. Background merges change the
// layout without changing steps or totals, so the layout itself must be
// part of the check.
func sidecarMatches(parts []sidecarPart, steps int, m storeManifestView) bool {
	if m.Steps != steps || len(m.Pending) != 0 || len(m.Parts) != len(parts) {
		return false
	}
	mp := make([]struct {
		count      int64
		start, end int
	}, len(m.Parts))
	for i, p := range m.Parts {
		mp[i] = struct {
			count      int64
			start, end int
		}{p.Count, p.StartStep, p.EndStep}
	}
	sort.Slice(mp, func(i, j int) bool { return mp[i].start < mp[j].start })
	for i, p := range parts {
		if mp[i].count != p.Count || mp[i].start != p.StartStep || mp[i].end != p.EndStep {
			return false
		}
	}
	return true
}

// scopedFromParts is engine.ScopedSummary over a sidecar: the sidecar's
// partitions are the stream's spans (a cold stream has no sealed backlog and
// no live buffer), query.Scope.Select picks the range, and the parts in it
// are copied out.
func scopedFromParts(parts []sidecarPart, eps1, eps2 float64, sc query.Scope) (*core.ShardSummary, error) {
	ends := make([]int, len(parts))
	for i, p := range parts {
		ends[i] = p.EndStep
	}
	lo, hi, _, err := sc.Select(ends)
	if err != nil {
		return nil, err
	}
	sum := &core.ShardSummary{Eps1: eps1, Eps2: eps2}
	for _, p := range parts[lo:hi] {
		sum.Parts = append(sum.Parts, core.PartSummary{Count: p.Count, Values: p.Values})
		sum.N += p.Count
	}
	return sum, nil
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
	// Fallback: hydrate once (counted in DirectoryStats.Hydrations).
	eng, err = db.acquire(ent)
	if err != nil {
		return nil, err
	}
	defer db.release(ent)
	return eng.ScopedSummary(sc)
}
