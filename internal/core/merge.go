package core

import (
	"math"
	"slices"

	"repro/internal/partition"
)

// This file is the merge kernel behind every combined summary. Each input of
// TS — a partition summary, a stream piece's summary — is already sorted, so
// TS is built by merging: O(δ·log k) branch-free element moves for δ entries
// in k runs, where a sort pays O(δ·log δ) comparator calls. Ties go to the
// earlier run, so laying the runs out in the (value, source) order makes the
// output element-for-element what sorting on that key gives.

// sortedRun is one sorted input of the merge with the rank-bound terms its
// elements carry (the formulas preceding Lemma 2): the run's first element
// adds nothing to L and `first` to U, every later one w to both.
type sortedRun struct {
	vals  []int64
	w     float64
	first float64
}

// partRun is the run of one partition summary: w = ε₁·count, and α_P = 1
// contributes w to U, 0 to L.
func partRun(count int64, vals []int64, eps1 float64) sortedRun {
	w := float64(count) * eps1
	return sortedRun{vals: vals, w: w, first: w}
}

// appendPartRuns lays partition summaries out after runs, in index order.
func appendPartRuns(runs []sortedRun, sums []*partition.Summary, eps1 float64) []sortedRun {
	runs = slices.Grow(runs, len(sums))
	for _, s := range sums {
		runs = append(runs, partRun(s.Part.Count, s.Values, eps1))
	}
	return runs
}

// pieceRuns lays stream pieces out in descending index order (the order
// their sources sort in, ahead of every partition): w = ε₂·m_j, and b_j
// flipping to 1 contributes 2·ε₂·m_j to U (α+1 = 2), 0 to L.
func pieceRuns(pieces []StreamPiece, eps2 float64) []sortedRun {
	runs := make([]sortedRun, len(pieces))
	for j, p := range pieces {
		w := eps2 * float64(p.M)
		runs[len(pieces)-1-j] = sortedRun{vals: p.SS, w: w, first: 2 * w}
	}
	return runs
}

// runLen is the number of elements in runs.
func runLen(runs []sortedRun) int {
	n := 0
	for _, r := range runs {
		n += len(r.vals)
	}
	return n
}

// mergeRuns merges the runs stably — the first streams of them stream
// pieces, the rest partition summaries — and sweeps the result once for L
// and U: the four sums of the bound formulas (stream and historical, L and
// U) run separately in output order and are added per entry.
func mergeRuns(runs []sortedRun, streams int) *partition.MergedSummaries {
	// Two bytes of tag per element while they fit: the merge moves bytes.
	if 2*len(runs) <= math.MaxUint16 {
		return mergeTagged[uint16](runs, streams)
	}
	return mergeTagged[uint32](runs, streams)
}

func mergeTagged[T uint16 | uint32](runs []sortedRun, streams int) *partition.MergedSummaries {
	total := runLen(runs)
	ms := &partition.MergedSummaries{}
	if total == 0 {
		return ms
	}
	// An element travels as (value, tag): tag 2·run, +1 on the run's first
	// element — all the sweep needs to know about where it came from.
	vals, tags := make([]int64, total), make([]T, total)
	if mid := len(runs) / 2; mid == 0 {
		mergeInto(runs, 0, vals, tags, nil, nil)
	} else {
		// The top merge runs in place: the right half is built where it
		// ends up, the left half in scratch, and merging forward never
		// writes past the right half's read position. Scratch is then half
		// of TS, and dead before L and U are allocated.
		nl := runLen(runs[:mid])
		n := max(nl, total-nl)
		sv, st := make([]int64, n), make([]T, n)
		mergeInto(runs[mid:], mid, vals[nl:], tags[nl:], sv[:total-nl], st[:total-nl])
		mergeInto(runs[:mid], 0, sv[:nl], st[:nl], vals[:nl], tags[:nl])
		merge2(vals, tags, sv[:nl], st[:nl], vals[nl:], tags[nl:])
	}

	incL, incU := make([]float64, 2*len(runs)), make([]float64, 2*len(runs))
	for i, r := range runs {
		incL[2*i], incU[2*i] = r.w, r.w
		incU[2*i+1] = r.first // incL stays 0: x + 0 is x for the non-negative sums here
	}
	ms.Values = vals
	ms.Lower, ms.Upper = make([]float64, total), make([]float64, total)
	var streamL, streamU, histL, histU float64
	split := T(2 * streams) // tags below it are stream pieces'
	for i, t := range tags {
		if t < split {
			streamL += incL[t]
			streamU += incU[t]
		} else {
			histL += incL[t]
			histU += incU[t]
		}
		ms.Lower[i], ms.Upper[i] = streamL+histL, streamU+histU
	}
	return ms
}

// mergeInto writes the stable merge of runs, tagged from run index base,
// into (dv, dt), with (tv, tt) of the same length as scratch. The recursion
// is depth-first, so a subtree's passes run while its elements are still in
// cache; every element is moved ⌈log₂ k⌉ times.
func mergeInto[T uint16 | uint32](runs []sortedRun, base int, dv []int64, dt []T, tv []int64, tt []T) {
	if len(runs) == 1 {
		copy(dv, runs[0].vals)
		for i := range dt {
			dt[i] = T(2 * base)
		}
		if len(dt) > 0 {
			dt[0]++
		}
		return
	}
	mid := len(runs) / 2
	nl := runLen(runs[:mid])
	mergeInto(runs[:mid], base, tv[:nl], tt[:nl], dv[:nl], dt[:nl])
	mergeInto(runs[mid:], base+mid, tv[nl:], tt[nl:], dv[nl:], dt[nl:])
	merge2(dv, dt, tv[:nl], tt[:nl], tv[nl:], tt[nl:])
}

// merge2 merges (av, at) and (bv, bt) into (dv, dt); a wins ties. b may be
// the tail of d itself: an output slot is written only after the b element
// that could sit there was read. The loop
// body is written as selects so the compiler emits conditional moves: which
// side is next is a coin flip on real data, and a mispredicted branch per
// element costs more than the whole move.
func merge2[T uint16 | uint32](dv []int64, dt []T, av []int64, at []T, bv []int64, bt []T) {
	na, nb := len(av), len(bv)
	at, bt, dt = at[:na], bt[:nb], dt[:len(dv)]
	i, j, k := 0, 0, 0
	for i < na && j < nb {
		x, y, tx, ty := av[i], bv[j], at[i], bt[j]
		v, t, d := x, tx, 0
		if y < x {
			v = y
		}
		if y < x {
			t = ty
		}
		if y < x {
			d = 1
		}
		dv[k], dt[k] = v, t
		i += 1 - d
		j += d
		k++
	}
	copy(dv[k:], av[i:])
	k += copy(dt[k:], at[i:])
	copy(dv[k:], bv[j:])
	copy(dt[k:], bt[j:])
}

// addMerge lays a merged stream side over a merged historical side — the
// per-version cached one — into TS: stream entries first on ties, as their
// sources sort first, and each entry's L and U the sum of the two sides'
// running terms, which is what one sweep over all the runs computes. An
// empty side leaves the other as TS unchanged (and shared: never mutated).
func addMerge(strm, hist *partition.MergedSummaries) *partition.MergedSummaries {
	ns, nh := len(strm.Values), len(hist.Values)
	if ns == 0 {
		return hist
	}
	if nh == 0 {
		return strm
	}
	n := ns + nh
	ts := &partition.MergedSummaries{
		Values: make([]int64, n),
		Lower:  make([]float64, n),
		Upper:  make([]float64, n),
	}
	var sl, su, hl, hu float64
	i, j := 0, 0
	for k := range ts.Values {
		if j == nh || (i < ns && strm.Values[i] <= hist.Values[j]) {
			ts.Values[k] = strm.Values[i]
			sl, su = strm.Lower[i], strm.Upper[i]
			i++
		} else {
			ts.Values[k] = hist.Values[j]
			hl, hu = hist.Lower[j], hist.Upper[j]
			j++
		}
		ts.Lower[k], ts.Upper[k] = sl+hl, su+hu
	}
	return ts
}
