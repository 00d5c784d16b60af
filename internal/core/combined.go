// Package core implements the paper's query algorithms over the historical
// summaries (HS), the stream side, and the on-disk partition store: the rank
// bounds L/U of the combined summary TS (Lemma 2), the quick response
// (Algorithm 5), filter generation (Algorithm 7) and the accurate response's
// value-space sweep with per-partition disk searches (Algorithms 6 and 8).
//
// The engine hands its in-memory steps here whole (StreamPiece.Merge), so an
// accurate answer counts them exactly and carries one error term, ε·m; every
// summary — a partition's, or a piece that leaves the engine — is captured
// at the one ε₁ by partition.CapturePos.
//
// TS is never built. The paper only asks it for point selections — the
// smallest value with L ≥ r, the largest with U ≤ r — and Lemma 2 defines
// L(v) and U(v) as sums over the summaries of α(v) = |{elements ≤ v}|, one
// binary search per summary. Combined therefore keeps the sorted summaries
// as they are handed to it and selects among their values with probes aimed
// at the target's rank (cross): O(k·log β) per probe for k summaries of β
// elements, a handful of probes per selection, O(k) scratch.
// The precondition is that every summary is sorted ascending; summaries
// built here are, and DecodeShardSummary refuses one from a peer or a
// SUMMARY.bin that is not.
package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/partition"
)

// SortedSummary is a sorted run captured at ε as a partition's summary is:
// the partition.Beta entries partition.CapturePos places, a run of fewer
// than 1/ε values whole, each at an exact rank (StreamPiece.At).
func SortedSummary(sorted []int64, eps float64) []int64 {
	m := int64(len(sorted))
	if m == 0 {
		return nil
	}
	ss := make([]int64, partition.Beta(m, eps))
	for i := range ss {
		ss[i] = sorted[partition.CapturePos(i, m, eps)]
	}
	return ss
}

// StreamPiece is one in-memory step: the live step's sorted run, or a sealed
// step whose partition is not published yet — its write is running, or
// failed and waits for the next settle. Queries read pieces without disk
// probes, so snapshot-isolated reads stay correct while installs run behind
// them. A piece is never written once built, so readers share it.
type StreamPiece struct {
	// SS is the piece (sorted): whole (Merge), or captured at ε₁ (At).
	SS []int64
	// M is the number of elements the piece covers.
	M int64
}

// Merge returns the whole piece of p's elements and the sorted values, in a
// new buffer; it never writes p, which must be whole or empty. A whole piece
// is taken as the capture rule takes a run shorter than 1/ε: the minimum
// twice, entry i at position i−1 (CapturePos at ε = 0), so its L and U are
// the exact rank. The stretch of p below sorted's least value and what is
// left once either input runs out are copied in bulk; only where the two
// interleave are values compared.
func (p StreamPiece) Merge(sorted []int64) StreamPiece {
	if len(sorted) == 0 {
		return p
	}
	var run []int64
	if p.M > 0 {
		run = p.SS[1:]
	}
	ss := make([]int64, len(run)+len(sorted)+1)
	i, _ := slices.BinarySearch(run, sorted[0])
	k := 1 + copy(ss[1:], run[:i])
	j := 0
	for i < len(run) && j < len(sorted) {
		if run[i] <= sorted[j] {
			ss[k] = run[i]
			i++
		} else {
			ss[k] = sorted[j]
			j++
		}
		k++
	}
	k += copy(ss[k:], run[i:])
	copy(ss[k:], sorted[j:])
	ss[0] = ss[1]
	return StreamPiece{SS: ss, M: int64(len(ss) - 1)}
}

// whole reports whether the piece holds all M elements. Any ε that captures
// M+1 entries places them as ε = 0 does, so a whole piece at ε₁ reads alike.
func (p StreamPiece) whole() bool { return int64(len(p.SS)) == p.M+1 }

// At returns the piece captured at ε: a whole piece's elements through
// SortedSummary, unless that keeps them all.
func (p StreamPiece) At(eps float64) StreamPiece {
	if !p.whole() || len(p.SS) == partition.Beta(p.M, eps) {
		return p
	}
	return StreamPiece{SS: SortedSummary(p.SS[1:], eps), M: p.M}
}

// sortedRun is one non-empty sorted summary, the number of elements it
// stands for — a partition's count, or a stream piece's M — and the ε its
// entries were captured at, which places them (partition.CapturePos).
type sortedRun struct {
	vals []int64
	n    int64
	eps  float64
}

// bound returns the run's share of L(v), or of U(v) when upper is set, when
// alpha of its entries are ≤ v. Entry alpha−1 is ≤ v and sits at
// pos(alpha−1), so at least pos(alpha−1)+1 elements are; entry alpha is > v,
// so at most pos(alpha) are, and all n once every entry is ≤ v. A run of no
// elements bounds nothing. It makes one CapturePos call, which keeps it
// within the inliner's budget: a crossing calls it once a run a probe.
func (r *sortedRun) bound(alpha int, upper bool) int64 {
	if alpha == 0 || r.n == 0 {
		return 0
	}
	entry, past := alpha-1, int64(1) // L: the last entry ≤ v, and one past it
	if upper {
		if alpha == len(r.vals) {
			return r.n
		}
		entry, past = alpha, 0 // U: the first entry > v
	}
	return partition.CapturePos(entry, r.n, r.eps) + past
}

// Combined is TS — the union of all historical summaries and the
// stream-side piece summaries with the rank bounds L and U of Lemma 2 —
// held as its sorted runs and nothing per entry. Every entry's rank in its
// run is exact, so L and U are sums of positions and hold on runs of any
// size.
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
}

// N returns the total data size n + m.
func (c *Combined) N() int64 { return c.histN + c.m }

// Epsilon returns the error parameter ε = 2ε₁ the summary was built under,
// the DB's ε. It is merge-invariant: TS over any union of summaries built
// with the same ε₁ — other partitions, other streams, other shards — carries
// the same per-item rank bands, which is why the query layer can report one
// ε for a merged multi-stream answer.
func (c *Combined) Epsilon() float64 { return 2 * c.eps1 }

// QuickRankError returns the worst-case rank error of a QuickQuery answer
// over this summary: ⌈1.5·ε·N⌉ (the paper's quick-response guarantee,
// Lemma 3). For a merged summary N is the union size, so this is the
// composed bound a cross-stream merged or grouped answer is subject to.
func (c *Combined) QuickRankError() int64 {
	return int64(math.Ceil(1.5 * c.Epsilon() * float64(c.N())))
}

// BuildPieces collects the runs of TS: the partition summaries, captured at
// eps1, and the stream pieces, each sorted ascending. It copies no element.
// Its fourth parameter is ignored, kept for the benchmark module's callers.
func BuildPieces(sums []*partition.Summary, pieces []StreamPiece, eps1, _ float64) *Combined {
	c := newCombined(len(sums), pieces, eps1)
	for _, s := range sums {
		c.addPart(s.Part.Count, s.Values)
	}
	c.sums = sums
	return c
}

// newCombined is a Combined over the stream pieces, with room for parts
// partition runs.
func newCombined(parts int, pieces []StreamPiece, eps1 float64) *Combined {
	c := &Combined{streams: pieces, eps1: eps1}
	c.runs = make([]sortedRun, 0, len(pieces)+parts)
	for _, p := range pieces {
		c.m += p.M
		eps := eps1
		if p.whole() {
			eps = 0
		}
		c.addRun(sortedRun{vals: p.SS, n: p.M, eps: eps})
	}
	return c
}

// addPart adds the summary of a partition of count elements.
func (c *Combined) addPart(count int64, vals []int64) {
	c.histN += count
	c.addRun(sortedRun{vals: vals, n: count, eps: c.eps1})
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

// boundsAt returns (L(v), U(v)) of Lemma 2, each the sum of the runs'
// shares (sortedRun.bound); both are 0 below the smallest summary element.
// L counts elements known ≤ v and U elements not known > v, so L ≤ rank(v)
// ≤ U on every input, and a run's U − L is one capture gap, at most ε₁ times
// its mass and 0 for a whole piece, so U − L ≤ ε₁·N.
func (c *Combined) boundsAt(v int64) (l, u int64) {
	for i := range c.runs {
		r := &c.runs[i]
		a := countLE(r.vals, 0, len(r.vals), v)
		l += r.bound(a, false)
		u += r.bound(a, true)
	}
	return l, u
}

// cross finds where a Lemma 2 bound of TS first reaches the target r: the
// smallest summary value v with U(v) > r when upper is set, else with
// L(v) ≥ r. Both bounds are monotone in v. It returns the largest summary
// value the test fails on (below) and the smallest it holds on (at); where
// one does not exist the other, then a global extreme, stands in for it.
// probes counts the probes, each one binary search per run still searched.
//
// The bounds change only at summary values, so cross selects among them:
// the candidates are the values above lo, where the test fails, and up to
// hi, where it holds, and every run keeps the bracket of its indices that
// holds them. A run whose bracket empties adds the same count to every
// later probe, so it leaves the search for a constant base. The probes aim
// at r's fraction f of the way from the bound at lo to the bound at hi.
// While the brackets are wide — the first probe, or wideBracket candidates
// a run — every run nominates the element f into its bracket and the probe
// is the mass-weighted median of the nominations, whatever the values'
// distribution; narrower, it interpolates f linearly across the candidate
// range (regula falsi). Either way the Illinois step halves the residual at
// an end kept twice in a row, the starting ends counting as kept once, so
// the probes close in from both sides. When two probes together fail to
// halve the candidate count, the next is the midpoint of the candidate
// range, so no crossing costs much more than twice a value-space bisection.
// The search stops when every candidate is the same value.
func (c *Combined) cross(r float64, upper bool) (below, at int64, probes int) {
	reached := func(k float64) bool { return k > r || (!upper && k == r) }

	// lo starts at the global minimum and hi at the maximum; only the runs
	// that start at the minimum have elements ≤ it to count.
	act := make([]bracket, 0, len(c.runs))
	count, minCand, maxCand := 0, c.maxV, c.maxV
	var base, bottom, top int64 // the bound's sums
	for i := range c.runs {
		run := &c.runs[i]
		p := bracket{run: run, b: len(run.vals)}
		if run.vals[0] == c.minV {
			p.a = countLE(run.vals, 0, p.b, c.minV)
		}
		p.ka, p.kb = run.bound(p.a, upper), run.bound(p.b, upper)
		bottom += p.ka
		top += p.kb
		if p.a == p.b {
			base += p.ka
			continue
		}
		act = append(act, p)
		count += p.b - p.a
		minCand = min(minCand, run.vals[p.a])
	}
	kLo, kHi := float64(bottom), float64(top)
	if reached(kLo) {
		return c.minV, c.minV, 0
	}
	if !reached(kHi) {
		return c.maxV, c.maxV, 0
	}
	// resLo and resHi are the bound minus r at lo and hi, as the Illinois
	// step has scaled them.
	resLo, resHi := kLo-r, kHi-r
	noms := make([]nomination, len(act))
	below = c.minV
	kept := 0         // the end the last probe kept: +1 lo, -1 hi, 0 both (the start)
	prev := 2 * count // the candidate count two probes back
	midpoint := false
	for minCand < maxCand {
		var z int64
		switch f := -resLo / (resHi - resLo); {
		case midpoint:
			z = minCand + int64(uint64(maxCand-minCand)/2) // exact in uint64 even when the difference overflows int64
		case probes == 0 || count >= wideBracket*len(act):
			z = weightedMedian(act, noms, f)
		default:
			z = between(minCand, maxCand, f)
		}
		z = min(max(z, minCand), maxCand-1)
		probes++

		s := base
		for i := range act {
			p := &act[i]
			p.mid = countLE(p.run.vals, p.a, p.b, z)
			p.kmid = p.run.bound(p.mid, upper)
			s += p.kmid
		}
		k := float64(s)
		hit := reached(k)
		if hit {
			if kept >= 0 {
				resLo /= 2
			}
			kept, resHi = 1, k-r
		} else {
			if kept <= 0 {
				resHi /= 2
			}
			kept, resLo = -1, k-r
		}

		n, j := 0, 0
		minCand, maxCand = math.MaxInt64, math.MinInt64
		for _, p := range act {
			if hit {
				p.b, p.kb = p.mid, p.kmid
			} else {
				p.a, p.ka = p.mid, p.kmid
			}
			if p.a == p.b {
				base += p.ka
				if p.a > 0 {
					below = max(below, p.run.vals[p.a-1])
				}
				continue
			}
			n += p.b - p.a
			minCand, maxCand = min(minCand, p.run.vals[p.a]), max(maxCand, p.run.vals[p.b-1])
			act[j] = p
			j++
		}
		act = act[:j]
		midpoint = 2*n > prev
		prev, count = count, n
	}
	// Every candidate is at; the largest summary value ≤ lo sits just under
	// some run's bracket.
	for _, p := range act {
		if p.a > 0 {
			below = max(below, p.run.vals[p.a-1])
		}
	}
	return below, minCand, probes
}

// wideBracket is the mean bracket length, in candidates a run, from which
// a crossing's probe is a weighted median of nominations; below it an
// element's share of its bracket is too coarse a step for f.
const wideBracket = 8

// bracket is a run's part in a crossing: vals[:a] ≤ lo < vals[a:b] ≤ hi,
// and mid counts its elements ≤ the current probe; ka, kb and kmid are the
// run's share of the crossed bound at a, b and mid.
type bracket struct {
	run          *sortedRun
	a, b, mid    int
	ka, kb, kmid int64
}

// nomination is a run's element proposed for a probe, with the run's mass.
type nomination struct {
	v int64
	w float64
}

// weightedMedian is a probe of a crossing aiming at the fraction f of the
// bracketed mass: every run nominates the element f into its bracket, and
// the probe is the smallest nomination at which the nominations' mass
// reaches half, each run weighing its bracket's exact rank span, what the
// crossed bound moves by across it. It selects in place (quickselect,
// three-way partitions), so noms — scratch of len(act) or more — ends
// reordered.
func weightedMedian(act []bracket, noms []nomination, f float64) int64 {
	noms = noms[:len(act)]
	var total float64
	for i, p := range act {
		span := p.b - p.a
		idx := p.a + min(max(int(f*float64(span)), 0), span-1)
		noms[i] = nomination{p.run.vals[idx], float64(p.kb - p.ka)}
		total += noms[i].w
	}
	// noms[lo:hi] holds the nominations not yet placed, acc the mass of
	// those placed below them.
	lo, hi, acc := 0, len(noms), 0.0
	for {
		pivot := noms[lo+(hi-lo)/2].v
		lt, i, gt := lo, lo, hi
		var below, at float64
		for i < gt {
			switch x := noms[i]; {
			case x.v < pivot:
				noms[lt], noms[i] = x, noms[lt]
				below += x.w
				lt++
				i++
			case x.v > pivot:
				gt--
				noms[gt], noms[i] = x, noms[gt]
			default:
				at += x.w
				i++
			}
		}
		switch {
		case lt > lo && acc+below >= total/2:
			hi = lt
		case acc+below+at >= total/2 || gt == hi:
			return pivot
		default:
			acc += below + at
			lo = gt
		}
	}
}

// between returns the value a fraction t of the way from lo to hi, clamped
// to [lo, hi−1] in float before the conversion, because the runs may hold
// the int64 extremes.
func between(lo, hi int64, t float64) int64 {
	z := float64(lo) + t*(float64(hi)-float64(lo))
	switch {
	case !(z > float64(lo)): // NaN included
		return lo
	case z >= float64(hi):
		return hi - 1
	}
	return min(max(int64(z), lo), hi-1)
}

// QuickQuery implements Algorithm 5: return the smallest summary value v
// with L(v) ≥ r, or the largest summary value if none. The returned
// element's rank is within 1.5·εN of r (Lemma 3).
func (c *Combined) QuickQuery(r int64) (int64, error) {
	if len(c.runs) == 0 {
		return 0, fmt.Errorf("core: quick query on empty summary")
	}
	_, v, _ := c.cross(float64(r), false)
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
	u, _, _ = c.cross(float64(r), true)
	_, v, _ = c.cross(float64(r), false)
	if u > v {
		// Only possible at the clamped extremes; normalize.
		u, v = v, u
	}
	return u, v, nil
}

// streamRank is the number of the pieces' elements ≤ z. It is exact: every
// piece an accurate read is handed is whole (Merge), its entry i the
// element at position i−1.
func streamRank(pieces []StreamPiece, z int64) int64 {
	var n int64
	for _, p := range pieces {
		n += int64(max(countLE(p.SS, 0, len(p.SS), z)-1, 0))
	}
	return n
}
