package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/enc"
	"repro/internal/partition"
)

// ShardSummary is one node's portable view of a stream: every in-memory
// summary (historical partition summaries plus stream-side pieces, all
// captured at one ε₁) with that ε₁, but none of the on-disk data.
// It is exactly the state BuildPieces needs — sorted runs with their counts
// — so shipping a ShardSummary per shard and selecting over all of their
// runs lets a coordinator answer quick (in-memory) quantile
// and rank queries over the union of N shards within the same ε bands
// the paper proves for one node — the mergeability property that
// makes scatter-gather correct without moving raw data. Accurate
// (disk-probing) queries cannot run over a ShardSummary: the partitions
// behind it live on the remote shard.
type ShardSummary struct {
	// N is the total element count the summary covers (historical + stream):
	// the sum of the part counts and the piece masses.
	N int64
	// Eps1 is the error parameter every run was captured at, ε/2 of the
	// engine's configured ε.
	Eps1 float64
	// Parts carries (count, step range, values) per historical partition
	// summary, oldest first.
	Parts []PartSummary
	// Pieces carries the stream-side piece summaries, each captured at Eps1
	// (StreamPiece.At).
	Pieces []StreamPiece
}

// PartSummary is the portable form of one partition summary
// (partition.PartSummary): the element count, the step range and the
// captured values.
type PartSummary = partition.PartSummary

// snapshotVersion is the ShardSummary encoding version byte. Version 1 had
// no step ranges; version 2's piece entries sat at band middles, not at the
// capture positions the bounds now read; version 3 captured ⌈1/ε⌉+1
// entries of every run, a run shorter than 1/ε with its positions repeated;
// version 4 carried a second ε, the pieces'; version 5 had no checksum. All
// are refused, not guessed at.
const snapshotVersion = 6

// crcTable is CRC-32C (Castagnoli), the checksum of the block format too.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendBinary appends the binary encoding of s to buf — the bytes of a
// peer's SummaryResp and of a stream's SUMMARY.bin alike:
//
//	version u8 | eps1 f64be | uvarint N
//	| uvarint len(parts)  | per part:  uvarint count | uvarint start | uvarint end
//	                                   | uvarint len | delta values
//	| uvarint len(pieces) | per piece: uvarint M     | uvarint len | delta values
//	| crc u32be (CRC-32C of every byte before it, from the version on)
//
// Summary values are sorted, so the shared delta+zig-zag varint codec keeps
// the encoding near 1–2 bytes per element.
func (s *ShardSummary) AppendBinary(buf []byte) []byte {
	at := len(buf)
	buf = append(buf, snapshotVersion)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Eps1))
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
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[at:], crcTable))
}

// DecodeShardSummary decodes one ShardSummary from data that came from
// outside the process — a peer's reply or a file on disk — and is the one
// validator for both. It rejects another version and a checksum mismatch
// (a flipped, cut or added byte). A peer can compute a matching checksum
// over anything, so behind it the decoder still rejects truncation,
// trailing bytes, declared lengths beyond the input size, and anything
// selection would answer garbage over without failing: a negative count,
// values that descend (the delta codec is signed), a step range that ends
// before it starts, an N that is not the sum of the part counts and piece
// masses (every rank target is a fraction of N), or a run whose entry count
// is not the capture rule's for its mass at ε₁ (partition.Beta), since the
// rule places every entry and the bounds read those places.
func DecodeShardSummary(data []byte) (*ShardSummary, error) {
	if len(data) > 0 && data[0] != snapshotVersion {
		return nil, fmt.Errorf("core: shard summary version %d (want %d)", data[0], snapshotVersion)
	}
	body := len(data) - 4
	if body < 1 {
		return nil, fmt.Errorf("core: decode shard summary: %d bytes, too few for a version and a checksum", len(data))
	}
	if crc32.Checksum(data[:body], crcTable) != binary.BigEndian.Uint32(data[body:]) {
		return nil, fmt.Errorf("core: decode shard summary: checksum mismatch")
	}
	d := enc.NewReader(data[1:body])
	s := &ShardSummary{
		Eps1: math.Float64frombits(d.Uint64()),
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
		if !captured(len(p.Values), p.Count, s.Eps1) {
			return nil, fmt.Errorf("core: decode shard summary: part %d holds %d values, not the capture rule's count for %d elements at ε₁ = %g",
				i, len(p.Values), p.Count, s.Eps1)
		}
		rest -= p.Count
	}
	for i, p := range s.Pieces {
		if p.M < 0 || p.M > rest || !slices.IsSorted(p.SS) {
			return nil, fmt.Errorf("core: decode shard summary: piece %d has a count outside [0, N] or descending values", i)
		}
		if !captured(len(p.SS), p.M, s.Eps1) {
			return nil, fmt.Errorf("core: decode shard summary: piece %d holds %d values, not the capture rule's count for %d elements at ε₁ = %g",
				i, len(p.SS), p.M, s.Eps1)
		}
		rest -= p.M
	}
	if rest != 0 {
		return nil, fmt.Errorf("core: decode shard summary: N = %d is %d more than its parts and pieces sum to", s.N, rest)
	}
	return s, nil
}

// captured reports whether n entries are what the capture rule takes of a
// run of count elements at ε, an ε in (0, 1].
func captured(n int, count int64, eps float64) bool {
	return eps > 0 && eps <= 1 && n == partition.Beta(count, eps)
}

// MergeShardSummaries collects every shard's runs into one combined
// summary, as if all their partitions and stream pieces belonged to one
// engine; no element is copied. Empty shards (N == 0) are skipped; the
// non-empty shards must agree on ε₁ — i.e. every node of the cluster runs
// the same configured ε — because the ε a run was captured at places its
// entries, and ε is one per answer. The returned total is
// Σ N; a nil Combined with total 0 means every shard was empty.
//
// Every run must be sorted ascending (DecodeShardSummary checks a peer's
// and a file's). Only quick (in-memory) queries — QuickQuery, Filters,
// QuickRank — are valid on the result: the shards'
// partitions have no device behind them here, so accurate disk-probing
// queries must stay on the owning shard.
func MergeShardSummaries(shards []*ShardSummary) (*Combined, int64, error) {
	var (
		parts  []PartSummary
		pieces []StreamPiece
		total  int64
		eps1   float64
		seen   bool
	)
	for i, sh := range shards {
		if sh == nil || sh.N == 0 {
			continue
		}
		if !seen {
			eps1, seen = sh.Eps1, true
		} else if sh.Eps1 != eps1 {
			return nil, 0, fmt.Errorf("core: shard %d has ε₁=%g, want %g — mixed-ε clusters cannot merge summaries",
				i, sh.Eps1, eps1)
		}
		total += sh.N
		parts = append(parts, sh.Parts...)
		pieces = append(pieces, sh.Pieces...)
	}
	if !seen {
		return nil, 0, nil
	}
	c := newCombined(len(parts), pieces, eps1)
	for _, p := range parts {
		c.addPart(p.Count, p.Values)
	}
	return c, total, nil
}
