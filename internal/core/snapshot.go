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
	// N is the total element count the summary covers (historical + stream):
	// the sum of the part counts and the piece masses.
	N int64
	// Eps1 and Eps2 are the partition-summary and stream-summary error
	// parameters (ε/2 and ε/4 of the engine's configured ε).
	Eps1, Eps2 float64
	// Parts carries (count, step range, values) per historical partition
	// summary, oldest first.
	Parts []PartSummary
	// Pieces carries the stream-side piece summaries.
	Pieces []StreamPiece
}

// PartSummary is the portable form of one partition summary: the element
// count, the time steps the partition covers, and the β₁ captured values.
// The step range is what lets a decoded summary be narrowed to a query scope
// and checked against a store manifest (the cold-summary sidecar); capture
// positions are omitted — they only matter for disk probes, which never
// cross shards.
type PartSummary struct {
	Count              int64
	StartStep, EndStep int
	Values             []int64
}

// snapshotVersion is the ShardSummary encoding version byte. Version 1 had
// no step ranges; it is refused, not guessed at.
const snapshotVersion = 2

// AppendBinary appends the binary encoding of s to buf — the bytes of a
// peer's SummaryResp and of a stream's SUMMARY.bin alike:
//
//	version u8 | eps1 f64be | eps2 f64be | uvarint N
//	| uvarint len(parts)  | per part:  uvarint count | uvarint start | uvarint end
//	                                   | uvarint len | delta values
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
		buf = binary.AppendUvarint(buf, uint64(p.StartStep))
		buf = binary.AppendUvarint(buf, uint64(p.EndStep))
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

// DecodeShardSummary decodes one ShardSummary from data that came from
// outside the process — a peer's reply or a file on disk — and is the one
// validator for both. It rejects another version, truncation, trailing
// bytes, declared lengths beyond the input size, and anything selection
// would answer garbage over without failing: a negative count, values that
// descend (the delta codec is signed), a step range that ends before it
// starts, or an N that is not the sum of the part counts and piece masses
// (every rank target is a fraction of N).
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
		s.Parts = append(s.Parts, PartSummary{
			Count:     int64(d.Uvarint()),
			StartStep: int(d.Uvarint()),
			EndStep:   int(d.Uvarint()),
			Values:    d.Values(),
		})
	}
	for i, npieces := 0, d.Count(); i < npieces && d.Err() == nil; i++ {
		s.Pieces = append(s.Pieces, StreamPiece{M: int64(d.Uvarint()), SS: d.Values()})
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("core: decode shard summary: %w", d.Err())
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("core: decode shard summary: %d trailing bytes", d.Len())
	}
	// rest counts N down by every run's mass; a count below zero or above
	// what is left fails there, so the sum cannot overflow its way to N.
	rest := s.N
	for i, p := range s.Parts {
		if p.Count < 0 || p.Count > rest || !slices.IsSorted(p.Values) {
			return nil, fmt.Errorf("core: decode shard summary: part %d has a count outside [0, N] or descending values", i)
		}
		if p.StartStep < 0 || p.EndStep < p.StartStep {
			return nil, fmt.Errorf("core: decode shard summary: part %d covers steps %d..%d", i, p.StartStep, p.EndStep)
		}
		rest -= p.Count
	}
	for i, p := range s.Pieces {
		if p.M < 0 || p.M > rest || !slices.IsSorted(p.SS) {
			return nil, fmt.Errorf("core: decode shard summary: piece %d has a count outside [0, N] or descending values", i)
		}
		rest -= p.M
	}
	if rest != 0 {
		return nil, fmt.Errorf("core: decode shard summary: N = %d is %d more than its parts and pieces sum to", s.N, rest)
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
// Every run must be sorted ascending (DecodeShardSummary checks a peer's
// and a file's). Only quick (in-memory) queries — QuickQuery, Filters,
// QuickRank, StreamRankEstimate — are valid on the result: the shards'
// partitions have no device behind them here, so accurate disk-probing
// queries must stay on the owning shard.
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
