// Package core implements the paper's query algorithms over the historical
// summaries (HS), the stream summary (SS), and the on-disk partition store:
// the rank bounds L/U of the combined summary TS (Lemma 2), the quick
// response (Algorithm 5), filter generation (Algorithm 7) and the accurate
// response's value-space bisection with per-partition disk searches
// (Algorithms 6 and 8).
//
// TS is never built. The paper only asks it for point selections — the
// smallest value with L ≥ r, the largest with U ≤ r — and Lemma 2 defines
// L(v) and U(v) as sums over the summaries of α(v) = |{elements ≤ v}|, one
// binary search per summary. Combined therefore keeps the sorted summaries
// as they are handed to it and answers by bisecting the value space over
// them: O(k·log β) per probe for k summaries of β elements, O(k) scratch.
// The precondition is that every summary is sorted ascending; summaries
// built here are, and DecodeShardSummary refuses one from a peer or a
// SUMMARY.bin that is not.
package core

import (
	"fmt"
	"math"

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

// sortedRun is one non-empty sorted summary and the number of elements it
// stands for: a partition's count, or a stream piece's M.
type sortedRun struct {
	vals   []int64
	n      int64
	stream bool
}

// Combined is TS — the union of all historical summaries and the
// stream-side piece summaries with the rank bounds L and U of Lemma 2 —
// held as its sorted runs and nothing per entry.
type Combined struct {
	runs       []sortedRun
	minV, maxV int64 // the extremes over every run; unset while runs is empty

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

// BuildPieces collects the runs of TS: the partition summaries and the
// stream pieces' summaries, each sorted ascending. It copies no element.
func BuildPieces(sums []*partition.Summary, pieces []StreamPiece, eps1, eps2 float64) *Combined {
	c := newCombined(len(sums), pieces, eps1, eps2)
	for _, s := range sums {
		c.addPart(s.Part.Count, s.Values)
	}
	c.sums = sums
	return c
}

// newCombined is a Combined over the stream pieces, with room for parts
// partition runs.
func newCombined(parts int, pieces []StreamPiece, eps1, eps2 float64) *Combined {
	c := &Combined{streams: pieces, eps1: eps1, eps2: eps2}
	c.runs = make([]sortedRun, 0, len(pieces)+parts)
	for _, p := range pieces {
		c.m += p.M
		c.addRun(sortedRun{vals: p.SS, n: p.M, stream: true})
	}
	return c
}

// addPart adds the summary of a partition of count elements.
func (c *Combined) addPart(count int64, vals []int64) {
	c.histN += count
	c.addRun(sortedRun{vals: vals, n: count})
}

// addRun keeps a run unless it is empty — a summary with mass but no
// elements bounds nothing.
func (c *Combined) addRun(r sortedRun) {
	if len(r.vals) == 0 {
		return
	}
	lo, hi := r.vals[0], r.vals[len(r.vals)-1]
	if len(c.runs) == 0 {
		c.minV, c.maxV = lo, hi
	}
	c.minV, c.maxV = min(c.minV, lo), max(c.maxV, hi)
	c.runs = append(c.runs, r)
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

// countLE returns lo + |{x ∈ vals[lo:hi] : x ≤ v}| for sorted vals.
func countLE(vals []int64, lo, hi int, v int64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vals[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rankSums are the sums of the bound formulas preceding Lemma 2 before the
// ε factors, as exact integers so that no bound depends on the order the
// runs are visited in:
//
//	L(v) = ε₂·Σ_j m_j·b_j·(α_{S_j} − 1) + ε₁·Σ_{P: α_P>0} m_P·(α_P − 1)
//	U(v) = ε₂·Σ_j m_j·b_j·(α_{S_j} + 1) + ε₁·Σ_{P: α_P>0} m_P·α_P
//
// where α_{S_j} (resp. α_P) counts summary elements ≤ v from stream piece j
// (resp. partition P) and b_j = 1 iff α_{S_j} > 0. With a single piece this
// is exactly the paper's bound; each extra sealed-batch piece contributes
// its own independent ε₂·m_j band.
type rankSums struct{ histL, histU, streamL, streamU int64 }

// add accounts for a run with alpha elements ≤ v.
func (s *rankSums) add(r *sortedRun, alpha int) {
	if alpha == 0 {
		return
	}
	a := int64(alpha)
	if r.stream {
		s.streamL += r.n * (a - 1)
		s.streamU += r.n * (a + 1)
	} else {
		s.histL += r.n * (a - 1)
		s.histU += r.n * a
	}
}

// bounds scales the sums to (L, U), each ε multiplied in once.
func (s rankSums) bounds(eps1, eps2 float64) (l, u float64) {
	return eps1*float64(s.histL) + eps2*float64(s.streamL),
		eps1*float64(s.histU) + eps2*float64(s.streamU)
}

// boundsAt returns (L(v), U(v)); both are 0 below the smallest summary
// element.
func (c *Combined) boundsAt(v int64) (l, u float64) {
	var s rankSums
	for i := range c.runs {
		r := &c.runs[i]
		s.add(r, countLE(r.vals, 0, len(r.vals), v))
	}
	return s.bounds(c.eps1, c.eps2)
}

// cross finds where reached — a predicate on (L(v), U(v)), monotone in v
// because both bounds are — turns true. It returns the largest summary
// value reached does not hold on and the smallest it holds on; where one
// does not exist the other, then a global extreme, stands in for it.
//
// It bisects the value space between the global extremes. Every run keeps
// the bracket of its indices that the value bracket still spans, so a probe
// is one binary search per run over a bracket that shrinks as the search
// goes: about k·log β comparisons until the brackets are empty, then one
// per run per probe.
func (c *Combined) cross(reached func(l, u float64) bool) (below, at int64) {
	// Invariant: reached is false at lo and true at hi; a[i] and b[i] count
	// run i's elements ≤ lo and ≤ hi.
	lo, hi := c.minV, c.maxV
	k := len(c.runs)
	scratch := make([]int, 3*k)
	a, b, mid := scratch[:k], scratch[k:2*k], scratch[2*k:]
	var sa, sb rankSums
	for i := range c.runs {
		r := &c.runs[i]
		a[i], b[i] = countLE(r.vals, 0, len(r.vals), lo), len(r.vals)
		sa.add(r, a[i])
		sb.add(r, b[i])
	}
	if reached(sa.bounds(c.eps1, c.eps2)) {
		return lo, lo
	}
	if !reached(sb.bounds(c.eps1, c.eps2)) {
		return hi, hi
	}
	for uint64(hi-lo) > 1 { // exact in uint64 even when the difference overflows int64
		z := lo + int64(uint64(hi-lo)/2)
		var s rankSums
		for i := range c.runs {
			r := &c.runs[i]
			mid[i] = countLE(r.vals, a[i], b[i], z)
			s.add(r, mid[i])
		}
		if reached(s.bounds(c.eps1, c.eps2)) {
			hi, b, mid = z, mid, b
		} else {
			lo, a, mid = z, mid, a
		}
	}
	// hi = lo + 1 and the bounds differ between them, so hi is a summary
	// value; the largest one ≤ lo sits just under some run's bracket.
	below = c.minV
	for i := range c.runs {
		if a[i] > 0 {
			below = max(below, c.runs[i].vals[a[i]-1])
		}
	}
	return below, hi
}

// QuickQuery implements Algorithm 5: return the smallest summary value v
// with L(v) ≥ r, or the largest summary value if none. The returned
// element's rank is within 1.5·εN of r (Lemma 3).
func (c *Combined) QuickQuery(r int64) (int64, error) {
	if len(c.runs) == 0 {
		return 0, fmt.Errorf("core: quick query on empty summary")
	}
	fr := float64(r)
	_, v := c.cross(func(l, _ float64) bool { return l >= fr })
	return v, nil
}

// Filters implements Algorithm 7: summary values u, v with rank(u,T) ≤ r ≤
// rank(v,T) and rank spread < 4εN (Lemma 4) — u the largest with U(u) ≤ r,
// v the smallest with L(v) ≥ r. When no U ≤ r exists the global minimum is
// used; when no L ≥ r exists the global maximum is used.
func (c *Combined) Filters(r int64) (u, v int64, err error) {
	if len(c.runs) == 0 {
		return 0, 0, fmt.Errorf("core: filters on empty summary")
	}
	fr := float64(r)
	u, _ = c.cross(func(_, u float64) bool { return u > fr })
	_, v = c.cross(func(l, _ float64) bool { return l >= fr })
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
		rho += float64(countLE(p.SS, 0, len(p.SS), z)) * eps2 * float64(p.M)
	}
	return rho
}
