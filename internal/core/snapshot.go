package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/enc"
)

// ShardSummary is one node's portable view of a stream: every in-memory
// summary (historical partition summaries plus stream-side pieces) with the
// error parameters they were built under, but none of the on-disk data.
// It is exactly the state BuildPieces needs — sorted runs with their counts
// — so shipping a ShardSummary per shard and selecting over all of their
// runs lets a coordinator answer quick (in-memory) quantile
// and rank queries over the union of N shards within the same composed ε
// bands the paper proves for one node — the mergeability property that
// makes scatter-gather correct without moving raw data. Accurate
// (disk-probing) queries cannot run over a ShardSummary: the partitions
// behind it live on the remote shard.
type ShardSummary struct {
	// N is the total element count the summary covers (historical + stream).
	N int64
	// Eps1 and Eps2 are the partition-summary and stream-summary error
	// parameters (ε/2 and ε/4 of the engine's configured ε).
	Eps1, Eps2 float64
	// Parts carries (count, values) per historical partition summary.
	Parts []PartSummary
	// Pieces carries the stream-side piece summaries.
	Pieces []StreamPiece
}

// PartSummary is the portable form of one partition summary: the element
// count and the β₁ captured values. Capture positions are omitted — they
// only matter for disk probes, which never cross shards.
type PartSummary struct {
	Count  int64
	Values []int64
}

// snapshotVersion is the ShardSummary wire-encoding version byte.
const snapshotVersion = 1

// AppendBinary appends the binary encoding of s to buf:
//
//	version u8 | eps1 f64be | eps2 f64be | uvarint N
//	| uvarint len(parts)  | per part:  uvarint count | uvarint len | delta values
//	| uvarint len(pieces) | per piece: uvarint M     | uvarint len | delta values
//
// Summary values are sorted, so the shared delta+zig-zag varint codec keeps
// the encoding near 1–2 bytes per element.
func (s *ShardSummary) AppendBinary(buf []byte) []byte {
	buf = append(buf, snapshotVersion)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Eps1))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Eps2))
	buf = binary.AppendUvarint(buf, uint64(s.N))
	buf = binary.AppendUvarint(buf, uint64(len(s.Parts)))
	for _, p := range s.Parts {
		buf = binary.AppendUvarint(buf, uint64(p.Count))
		buf = binary.AppendUvarint(buf, uint64(len(p.Values)))
		buf = enc.AppendDelta(buf, p.Values)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Pieces)))
	for _, p := range s.Pieces {
		buf = binary.AppendUvarint(buf, uint64(p.M))
		buf = binary.AppendUvarint(buf, uint64(len(p.SS)))
		buf = enc.AppendDelta(buf, p.SS)
	}
	return buf
}

// DecodeShardSummary decodes one ShardSummary from data, rejecting
// trailing bytes, declared lengths beyond the input size, and a part or
// piece with a negative count or values that descend: the delta codec is
// signed, and selection over an unsorted run answers garbage without
// failing.
func DecodeShardSummary(data []byte) (*ShardSummary, error) {
	d := enc.NewReader(data)
	if v := d.Byte(); d.Err() == nil && v != snapshotVersion {
		return nil, fmt.Errorf("core: shard summary version %d (want %d)", v, snapshotVersion)
	}
	s := &ShardSummary{
		Eps1: math.Float64frombits(d.Uint64()),
		Eps2: math.Float64frombits(d.Uint64()),
		N:    int64(d.Uvarint()),
	}
	for i, nparts := 0, d.Count(); i < nparts && d.Err() == nil; i++ {
		count := int64(d.Uvarint())
		s.Parts = append(s.Parts, PartSummary{Count: count, Values: d.Values()})
	}
	for i, npieces := 0, d.Count(); i < npieces && d.Err() == nil; i++ {
		m := int64(d.Uvarint())
		s.Pieces = append(s.Pieces, StreamPiece{M: m, SS: d.Values()})
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("core: decode shard summary: %w", d.Err())
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("core: decode shard summary: %d trailing bytes", d.Len())
	}
	if s.N < 0 {
		return nil, fmt.Errorf("core: decode shard summary: negative N")
	}
	for i, p := range s.Parts {
		if p.Count < 0 || !slices.IsSorted(p.Values) {
			return nil, fmt.Errorf("core: decode shard summary: part %d has a negative count or descending values", i)
		}
	}
	for i, p := range s.Pieces {
		if p.M < 0 || !slices.IsSorted(p.SS) {
			return nil, fmt.Errorf("core: decode shard summary: piece %d has a negative count or descending values", i)
		}
	}
	return s, nil
}

// MergeShardSummaries collects every shard's runs into one combined
// summary, as if all their partitions and stream pieces belonged to one
// engine; no element is copied. Empty shards (N == 0) are skipped; the
// non-empty shards must agree on (ε₁, ε₂) — i.e. every node of the cluster
// runs the same configured ε — because the L/U rank-bound formulas weight
// each source by its own ε term. The returned total is Σ N; a nil Combined
// with total 0 means every shard was empty.
//
// Every run must be sorted ascending (DecodeShardSummary checks a peer's).
// Only quick (in-memory) queries — QuickQuery, Filters, QuickRank,
// StreamRankEstimate — are valid on the result: the shards' partitions have
// no device behind them here, so accurate disk-probing queries must stay on
// the owning shard.
func MergeShardSummaries(shards []*ShardSummary) (*Combined, int64, error) {
	var (
		parts      []PartSummary
		pieces     []StreamPiece
		total      int64
		eps1, eps2 float64
		seen       bool
	)
	for i, sh := range shards {
		if sh == nil || sh.N == 0 {
			continue
		}
		if !seen {
			eps1, eps2, seen = sh.Eps1, sh.Eps2, true
		} else if sh.Eps1 != eps1 || sh.Eps2 != eps2 {
			return nil, 0, fmt.Errorf("core: shard %d has ε=(%g,%g), want (%g,%g) — mixed-ε clusters cannot merge summaries",
				i, sh.Eps1, sh.Eps2, eps1, eps2)
		}
		total += sh.N
		parts = append(parts, sh.Parts...)
		pieces = append(pieces, sh.Pieces...)
	}
	if !seen {
		return nil, 0, nil
	}
	c := newCombined(len(parts), pieces, eps1, eps2)
	for _, p := range parts {
		c.addPart(p.Count, p.Values)
	}
	return c, total, nil
}
