// Package core implements the paper's query algorithms over the historical
// summaries (HS), the stream summary (SS), and the on-disk partition store:
// the combined summary TS with its rank bounds L/U (Lemma 2), the quick
// response (Algorithm 5), filter generation (Algorithm 7) and the accurate
// response's value-space bisection with per-partition disk searches
// (Algorithms 6 and 8).
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/gk"
	"repro/internal/partition"
)

// StreamSummary extracts SS from the GK sketch (Algorithm 4,
// StreamSummary): β₂ = ⌈1/ε₂ + 1⌉ elements — the exact stream minimum plus
// the elements at approximate ranks i·ε₂m. The sketch must have been run
// with error parameter ε₂/2; querying rank i·ε₂m + ε₂m/2 with a two-sided
// ±ε₂m/2 guarantee yields exactly Lemma 1's band
// [i·ε₂m, (i+1)·ε₂m] for SS[i]. The ranks ascend, so the sketch answers
// them all in one scan and the answers come back sorted.
func StreamSummary(g *gk.Sketch, eps2 float64) []int64 {
	m := g.Count()
	if m == 0 {
		return nil
	}
	ss := make([]int64, beta(eps2))
	ss[0], _ = g.Min()
	em := eps2 * float64(m)
	for i := 1; i < len(ss); i++ {
		ss[i] = int64(float64(i)*em + em/2)
	}
	g.QueryAscending(ss[1:])
	return ss
}

// beta returns ⌈1/ε + 1⌉.
func beta(eps float64) int {
	return int(math.Ceil(1.0/eps + 1))
}

// StreamPiece is one memory-resident stream-side source of the combined
// summary: the live GK sketch's summary, or the frozen summary of a batch
// that was sealed at an end-of-step but not yet installed as an on-disk
// partition by background maintenance. Each piece carries Lemma 1's
// one-sided ε₂·M rank bands independently; queries treat every piece like
// "the stream" — estimate-only, no disk probes — so snapshot-isolated reads
// stay correct while installs run behind them.
type StreamPiece struct {
	// SS is the piece's summary (sorted): β₂ elements at approximate ranks
	// i·ε₂·M, as extracted by StreamSummary.
	SS []int64
	// M is the number of elements the piece covers.
	M int64
}

// Combined is TS — the sorted union of all historical summaries and the
// stream-side piece summaries — together with the per-item rank bounds L
// and U of Lemma 2: 24 bytes per entry (value, L_i, U_i).
type Combined struct {
	ts mergedRuns

	// sums are the partitions the accurate query's cursors open; nil for a
	// summary merged from shards, whose partitions live elsewhere.
	sums    []*partition.Summary
	streams []StreamPiece

	m     int64 // total stream-side size (Σ piece M)
	histN int64 // historical size
	eps1  float64
	eps2  float64
}

// N returns the total data size n + m.
func (c *Combined) N() int64 { return c.histN + c.m }

// Len returns δ, the number of TS entries.
func (c *Combined) Len() int { return len(c.ts.Values) }

// Value returns TS[i].
func (c *Combined) Value(i int) int64 { return c.ts.Values[i] }

// Bounds returns (L_i, U_i).
func (c *Combined) Bounds(i int) (float64, float64) { return c.ts.Lower[i], c.ts.Upper[i] }

// Epsilon returns the composed error parameter ε = ε₁ + 2ε₂ the summary was
// built under. The composition is merge-invariant: TS over any union of
// summaries built with the same (ε₁, ε₂) — other partitions, other streams,
// other shards — carries the same per-item rank bands, which is why the
// query layer can report one ε for a merged multi-stream answer.
func (c *Combined) Epsilon() float64 { return c.eps1 + 2*c.eps2 }

// QuickRankError returns the worst-case rank error of a QuickQuery answer
// over this summary: ⌈1.5·ε·N⌉ (the paper's quick-response guarantee,
// Lemma 3). For a merged summary N is the union size, so this is the
// composed bound a cross-stream merged or grouped answer is subject to.
func (c *Combined) QuickRankError() int64 {
	return int64(math.Ceil(1.5 * c.Epsilon() * float64(c.N())))
}

// BuildPieces constructs TS and computes every L_i and U_i (the formulas
// preceding Lemma 2, with the stream term summed over every memory-resident
// piece):
//
//	L_i = Σ_j ε₂·m_j·b_j·(α_{S_j} − 1) + Σ_{P: α_P>0} m_P·ε₁·(α_P − 1)
//	U_i = Σ_j ε₂·m_j·b_j·(α_{S_j} + 1) + Σ_{P: α_P>0} m_P·ε₁·α_P
//
// where α_{S_j} (resp. α_P) counts summary elements ≤ TS[i] from stream
// piece j (resp. partition P) and b_j = 1 iff α_{S_j} > 0. With a single
// piece this is exactly the paper's bound; each extra sealed-batch piece
// contributes its own independent ε₂·m_j band.
//
// Every summary is already sorted, so TS is a stable k-way merge of them
// (merge.go) in O(δ·log k). sums arrive partitions oldest-first — the one
// order partition.Version.Entries publishes and every caller passes on — so
// ties in TS order stream pieces newest-first, then partitions oldest-first,
// on every surface.
func BuildPieces(sums []*partition.Summary, pieces []StreamPiece, eps1, eps2 float64) *Combined {
	var histN int64
	for _, s := range sums {
		histN += s.Part.Count
	}
	c := newCombined(histN, pieces, eps1, eps2)
	c.ts = mergeRuns(appendPartRuns(pieceRuns(pieces, eps2), sums, eps1), len(pieces))
	c.sums = sums
	return c
}

// newCombined is a Combined with everything but TS and the partitions.
func newCombined(histN int64, pieces []StreamPiece, eps1, eps2 float64) *Combined {
	c := &Combined{streams: pieces, histN: histN, eps1: eps1, eps2: eps2}
	for _, p := range pieces {
		c.m += p.M
	}
	return c
}

// RankTarget is the rank a φ-quantile over n elements asks for: ⌈φ·n⌉,
// clamped to [1, n], for φ in (0, 1]. Every read surface — engine, merged
// plans, cluster coordinators — resolves φ through this one rule, so they
// agree with each other and with internal/oracle.
func RankTarget(phi float64, n int64) (int64, error) {
	if !(phi > 0 && phi <= 1) {
		return 0, fmt.Errorf("core: phi must be in (0,1], got %g", phi)
	}
	return min(max(int64(math.Ceil(phi*float64(n))), 1), n), nil
}

// QuickQuery implements Algorithm 5: return TS[j] for the smallest j with
// L_j ≥ r, or the last element if none. The returned element's rank is
// within 1.5·εN of r (Lemma 3).
func (c *Combined) QuickQuery(r int64) (int64, error) {
	if len(c.ts.Values) == 0 {
		return 0, fmt.Errorf("core: quick query on empty summary")
	}
	fr := float64(r)
	j := sort.Search(len(c.ts.Lower), func(i int) bool { return c.ts.Lower[i] >= fr })
	if j == len(c.ts.Lower) {
		j = len(c.ts.Lower) - 1
	}
	return c.ts.Values[j], nil
}

// Filters implements Algorithm 7: values u, v from TS with rank(u,T) ≤ r ≤
// rank(v,T) and rank spread < 4εN (Lemma 4). When no U_i ≤ r exists the
// global minimum is used; when no L_i ≥ r exists the global maximum is used.
func (c *Combined) Filters(r int64) (u, v int64, err error) {
	if len(c.ts.Values) == 0 {
		return 0, 0, fmt.Errorf("core: filters on empty summary")
	}
	fr := float64(r)
	// x: largest i with U_i ≤ r. U is non-decreasing, so binary search works.
	x := sort.Search(len(c.ts.Upper), func(i int) bool { return c.ts.Upper[i] > fr }) - 1
	if x < 0 {
		x = 0
	}
	// y: smallest i with L_i ≥ r.
	y := sort.Search(len(c.ts.Lower), func(i int) bool { return c.ts.Lower[i] >= fr })
	if y == len(c.ts.Lower) {
		y = len(c.ts.Lower) - 1
	}
	u, v = c.ts.Values[x], c.ts.Values[y]
	if u > v {
		// Only possible at the clamped extremes; normalize.
		u, v = v, u
	}
	return u, v, nil
}

// StreamRankEstimate returns ρ₂ of Algorithm 8, summed across every
// memory-resident stream piece: Σ_j ε₂·m_j·|{SS_j ≤ z}|.
func (c *Combined) StreamRankEstimate(z int64) float64 {
	return streamRankEstimate(c.streams, c.eps2, z)
}

func streamRankEstimate(pieces []StreamPiece, eps2 float64, z int64) float64 {
	var rho float64
	for _, p := range pieces {
		cnt := sort.Search(len(p.SS), func(i int) bool { return p.SS[i] > z })
		rho += float64(cnt) * eps2 * float64(p.M)
	}
	return rho
}
