package core

import (
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

// mergedRuns is a sorted union of runs with, per entry, the Lemma 2 bounds
// the runs' elements up to it add up to: TS, at 24 bytes per entry.
type mergedRuns struct {
	Values       []int64
	Lower, Upper []float64
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
func mergeRuns(runs []sortedRun, streams int) mergedRuns {
	total := runLen(runs)
	if total == 0 {
		return mergedRuns{}
	}
	// An element travels as (value, tag): tag 2·run, +1 on the run's first
	// element — all the sweep needs to know about where it came from.
	vals, tags := make([]int64, total), make([]uint32, total)
	if mid := len(runs) / 2; mid == 0 {
		mergeInto(runs, 0, vals, tags, nil, nil)
	} else {
		// The top merge runs in place: the right half is built where it
		// ends up, the left half in scratch, and merging forward never
		// writes past the right half's read position. Scratch is then half
		// of TS, and dead before L and U are allocated.
		nl := runLen(runs[:mid])
		n := max(nl, total-nl)
		sv, st := make([]int64, n), make([]uint32, n)
		mergeInto(runs[mid:], mid, vals[nl:], tags[nl:], sv[:total-nl], st[:total-nl])
		mergeInto(runs[:mid], 0, sv[:nl], st[:nl], vals[:nl], tags[:nl])
		merge2(vals, tags, sv[:nl], st[:nl], vals[nl:], tags[nl:])
	}

	incL, incU := make([]float64, 2*len(runs)), make([]float64, 2*len(runs))
	for i, r := range runs {
		incL[2*i], incU[2*i] = r.w, r.w
		incU[2*i+1] = r.first // incL stays 0: x + 0 is x for the non-negative sums here
	}
	ms := mergedRuns{Values: vals, Lower: make([]float64, total), Upper: make([]float64, total)}
	var streamL, streamU, histL, histU float64
	split := uint32(2 * streams) // tags below it are stream pieces'
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
func mergeInto(runs []sortedRun, base int, dv []int64, dt []uint32, tv []int64, tt []uint32) {
	if len(runs) == 1 {
		copy(dv, runs[0].vals)
		for i := range dt {
			dt[i] = uint32(2 * base)
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
func merge2(dv []int64, dt []uint32, av []int64, at []uint32, bv []int64, bt []uint32) {
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
