package core

import (
	"sort"

	"repro/internal/partition"
)

// This file implements the accurate query (Algorithms 6-8) as one shared
// multi-target sweep: generate filters from the combined summary, then
// bisect the value space, computing at each probe z the exact rank of z in
// every partition (block-granular binary search seeded from the summaries)
// plus the exact count of the in-memory steps' elements ≤ z, until that
// rank is within ε·m of a target rank, m the in-memory mass — resolving
// every rank target together (AccurateMultiQueryOpts), with an optional
// per-snapshot rank-probe memo (QueryOptions.Memo). A single-target query
// is the k=1 case.
//
// One deliberate refinement over the paper's pseudocode: Algorithm 8
// returns the accepted midpoint z itself, which need not be an element of
// T. We instead snap z to the largest element ≤ z (the per-partition
// predecessors sit right at the cursors' final boundary positions, in the
// run the probe decoded, a summary entry or a block's bounds; the stream
// predecessor comes from the pieces, which hold every element). The snapped
// element has exactly z's rank, so accepting within ε·m of the target keeps
// the answer within ε·m (Lemma 5) — and when the stream is empty the answer
// becomes the exact quantile.

// mtTarget is one rank target of a shared sweep: its current bisection
// interval plus the result slots it fills (duplicate φ values collapse to
// one target with several slots).
type mtTarget struct {
	r    int64
	fr   float64
	u, v int64
	out  []int
}

// sweep carries the state of one multi-target bisection: the combined
// summary, the acceptance band, the partition cursors, the backend-read
// budget and the cost counters.
type sweep struct {
	c    *Combined
	em   float64
	opts QueryOptions
	ans  []int64

	// cursors are opened lazily, so a fully memo-resolved query never
	// touches the store at all.
	cursors []*partition.Cursor

	iters     int
	memoHits  int
	truncated bool
}

// AccurateMultiQueryOpts answers several rank targets over one combined
// summary with a single shared bisection sweep: each probe at a midpoint z
// narrows every target whose interval brackets z, so k targets cost about
// log(filter range) + k probes instead of k·log(filter range). Results are
// positionally aligned with rs; the cost aggregates the whole sweep.
//
// MaxReads is one backend-read budget for the whole sweep (once spent, targets still
// in flight at the tripping probe snap to its midpoint and every other
// unresolved target is answered from the in-memory summary alone, with
// Truncated set); Interrupt is polled before every probe. Memo, when
// non-nil, resolves repeat probes with zero I/O (see QueryOptions.Memo).
func AccurateMultiQueryOpts(c *Combined, eps float64, rs []int64, opts QueryOptions) ([]int64, QueryCost, error) {
	var cost QueryCost
	ans := make([]int64, len(rs))
	if len(rs) == 0 {
		return ans, cost, nil
	}
	sw := &sweep{c: c, em: eps * float64(c.m), opts: opts, ans: ans}

	byR := make(map[int64]*mtTarget, len(rs))
	var ts []*mtTarget
	for i, r := range rs {
		if t, ok := byR[r]; ok {
			t.out = append(t.out, i)
			continue
		}
		u, v, err := c.Filters(r)
		if err != nil {
			return nil, cost, err
		}
		t := &mtTarget{r: r, fr: float64(r), u: u, v: v, out: []int{i}}
		byR[r] = t
		ts = append(ts, t)
	}
	live := ts[:0]
	for i, t := range ts {
		if i == 0 {
			cost.FilterU, cost.FilterV = t.u, t.v
		} else {
			cost.FilterU = min(cost.FilterU, t.u)
			cost.FilterV = max(cost.FilterV, t.v)
		}
		if t.u == t.v {
			sw.resolve(t, t.u)
			continue
		}
		live = append(live, t)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].r < live[j].r })

	err := sw.solve(live)
	sw.close(&cost)
	cost.Iterations, cost.MemoHits, cost.Truncated = sw.iters, sw.memoHits, sw.truncated
	if err != nil {
		return nil, cost, err
	}
	return ans, cost, nil
}

// solve resolves one group of targets whose intervals share a hull. Each
// probe at the hull midpoint classifies every target — move its upper
// filter down, its lower filter up, or accept — and the left then the right
// group recurse over disjoint subranges. Targets whose interval collapses
// to adjacent filters wait for finish.
func (sw *sweep) solve(ts []*mtTarget) error {
	if len(ts) == 0 {
		return nil
	}
	if sw.opts.Interrupt != nil {
		if err := sw.opts.Interrupt(); err != nil {
			return err
		}
	}
	if sw.exhausted() {
		// An earlier probe spent the whole budget: answer from the
		// in-memory summary alone, zero reads.
		return sw.quickAll(ts)
	}
	var endgame, live []*mtTarget
	for _, t := range ts {
		if t.v-t.u <= 1 {
			endgame = append(endgame, t)
		} else {
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return sw.finish(endgame)
	}

	// Probe the midpoint of the FIRST live target's interval, not the
	// group hull's: the lowest target then walks exactly the probe sequence
	// its solo bisection would (so a sweep never costs more probes than the
	// equivalent single-target calls), while every other target whose
	// interval brackets z still narrows for free. A hull midpoint looks
	// more balanced but lands in the no-man's-land between disjoint target
	// filters, spending probes that advance nobody.
	z := live[0].u + (live[0].v-live[0].u)/2
	sw.iters++
	rho, hist, e, fromMemo, err := sw.probe(z)
	if err != nil {
		return err
	}
	free := fromMemo // does resolving this probe cost any cursor work?
	var left, right []*mtTarget
	var accAns int64
	accDone := false
	for _, t := range live {
		switch {
		case t.fr < rho-sw.em:
			if z < t.v {
				t.v = z
			}
			left = append(left, t)
		case t.fr > rho+sw.em:
			if z > t.u {
				t.u = z
			}
			right = append(right, t)
		default:
			if !accDone {
				var used bool
				accAns, used, err = sw.snapAt(z, hist, e, fromMemo, false)
				if err != nil {
					return err
				}
				accDone = true
				free = free && !used
			}
			sw.resolve(t, accAns)
		}
	}
	if free {
		sw.memoHits++
	}
	if sw.exhausted() && len(left)+len(right) > 0 {
		// The budget tripped at this probe — which was therefore a real
		// one (memo hits spend nothing), so the cursors' state matches z
		// and snapping is valid. Targets whose interval still touches z
		// take it as their best current answer, like the single-target
		// path; targets bisecting elsewhere fall back to the in-memory
		// summary (Algorithm 5), which keeps them inside the filter spread
		// where z could be arbitrarily far off.
		var rest []*mtTarget
		for _, grp := range [2][]*mtTarget{left, right} {
			for _, t := range grp {
				if t.u > z || z > t.v {
					rest = append(rest, t)
					continue
				}
				if !accDone {
					if accAns, _, err = sw.snapAt(z, hist, e, fromMemo, false); err != nil {
						return err
					}
					accDone = true
				}
				sw.resolve(t, accAns)
			}
		}
		sw.truncated = true
		return sw.quickAll(append(rest, endgame...))
	}
	if err := sw.solve(left); err != nil {
		return err
	}
	if err := sw.solve(right); err != nil {
		return err
	}
	return sw.finish(endgame)
}

// finish resolves endgame targets — adjacent filters v = u+1 — exactly as
// the single-target endgame: one probe at u decides predecessor (rank(u)
// already reaches the target) versus successor. Targets sharing a u share
// the probe; this is the "+k" term of the sweep's probe bound.
func (sw *sweep) finish(ts []*mtTarget) error {
	if len(ts) == 0 {
		return nil
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].u != ts[j].u {
			return ts[i].u < ts[j].u
		}
		return ts[i].r < ts[j].r
	})
	for i := 0; i < len(ts); {
		j := i
		for j < len(ts) && ts[j].u == ts[i].u {
			j++
		}
		group, u := ts[i:j], ts[i].u
		i = j
		if sw.opts.Interrupt != nil {
			if err := sw.opts.Interrupt(); err != nil {
				return err
			}
		}
		if sw.exhausted() {
			if err := sw.quickAll(group); err != nil {
				return err
			}
			continue
		}
		sw.iters++
		rho, hist, e, fromMemo, err := sw.probe(u)
		if err != nil {
			return err
		}
		free := fromMemo
		var downAns, upAns int64
		downDone, upDone := false, false
		for _, t := range group {
			if rho >= t.fr {
				if !downDone {
					var used bool
					downAns, used, err = sw.snapAt(u, hist, e, fromMemo, false)
					if err != nil {
						return err
					}
					downDone = true
					free = free && !used
				}
				sw.resolve(t, downAns)
			} else {
				if !upDone {
					var used bool
					upAns, used, err = sw.snapAt(u, hist, e, fromMemo, true)
					if err != nil {
						return err
					}
					upDone = true
					free = free && !used
				}
				sw.resolve(t, upAns)
			}
		}
		if free {
			sw.memoHits++
		}
	}
	return nil
}

// probe computes the rank of z: the in-memory steps' count plus the
// historical rank, the latter from the memo when it already holds z.
func (sw *sweep) probe(z int64) (rho float64, hist int64, e partition.MemoEntry, fromMemo bool, err error) {
	sRank := streamRank(sw.c.streams, z)
	if sw.opts.Memo != nil {
		if e, ok := sw.opts.Memo.Lookup(z); ok {
			return float64(sRank + e.Rank), e.Rank, e, true, nil
		}
	}
	hist, err = sw.cursorProbe(z)
	if err != nil {
		return 0, 0, e, false, err
	}
	return float64(sRank + hist), hist, e, false, nil
}

// cursorProbe runs the real per-partition rank search at z — boundary(z)
// summed over the cursors, the reads that spend the backend-read budget —
// and records the result in the memo.
func (sw *sweep) cursorProbe(z int64) (hist int64, err error) {
	if err := sw.open(); err != nil {
		return 0, err
	}
	for _, cur := range sw.cursors {
		cur.SeekTo(z)
		p, err := cur.Rank(z)
		if err != nil {
			return 0, err
		}
		hist += p
	}
	if sw.opts.Memo != nil {
		sw.opts.Memo.StoreRank(z, hist)
	}
	return hist, nil
}

// snapAt snaps an accepted probe z to the largest element ≤ z, or with up
// the smallest > z. The historical side comes from the memo when the entry
// carries it; otherwise from the cursors, refreshing their state with a
// real probe first if the rank itself came from the memo. used reports
// whether any cursor work happened.
func (sw *sweep) snapAt(z, hist int64, e partition.MemoEntry, fromMemo, up bool) (ans int64, used bool, err error) {
	known, v, ok := e.PredKnown, e.Pred, e.PredExists
	if up {
		known, v, ok = e.SuccKnown, e.Succ, e.SuccExists
	}
	if fromMemo && known {
		ans, err = snapFrom(sw.c, v, ok, z, up)
		return ans, false, err
	}
	if fromMemo {
		if _, err := sw.cursorProbe(z); err != nil {
			return 0, true, err
		}
	}
	if v, ok, err = histNeighbour(sw.cursors, up); err != nil {
		return 0, true, err
	}
	switch {
	case sw.opts.Memo == nil:
	case up:
		sw.opts.Memo.SetSucc(z, hist, v, ok)
	default:
		sw.opts.Memo.SetPred(z, hist, v, ok)
	}
	ans, err = snapFrom(sw.c, v, ok, z, up)
	return ans, true, err
}

// quickAll answers targets from the in-memory summary alone (Algorithm 5,
// zero reads) and marks the sweep truncated.
func (sw *sweep) quickAll(ts []*mtTarget) error {
	for _, t := range ts {
		v, err := sw.c.QuickQuery(t.r)
		if err != nil {
			return err
		}
		sw.resolve(t, v)
	}
	sw.truncated = true
	return nil
}

// resolve writes a target's answer into its result slots.
func (sw *sweep) resolve(t *mtTarget, v int64) {
	for _, i := range t.out {
		sw.ans[i] = v
	}
}

// exhausted reports whether the backend-read budget is spent: the cursors'
// reads that reached the backend (cache hits, skips and memo hits spend
// nothing) against MaxReads.
func (sw *sweep) exhausted() bool {
	if sw.opts.MaxReads <= 0 {
		return false
	}
	reads := 0
	for _, cur := range sw.cursors {
		reads += cur.Reads()
	}
	return reads >= sw.opts.MaxReads
}

// open creates the cursors on first use. The seed range is irrelevant —
// every probe re-seeds its bracket with SeekTo.
func (sw *sweep) open() error {
	if sw.cursors != nil {
		return nil
	}
	for _, s := range sw.c.sums {
		cur, err := partition.NewCursor(s, 0, 0, sw.opts.PinBlocks)
		if err != nil {
			sw.close(&QueryCost{})
			return err
		}
		sw.cursors = append(sw.cursors, cur)
	}
	return nil
}

// close adds the cursors' reads to cost and releases them.
func (sw *sweep) close(cost *QueryCost) {
	for _, cur := range sw.cursors {
		cost.RandReads += cur.Reads()
		cost.CacheHits += cur.CacheHits()
		cost.SkippedBlocks += cur.Skips()
		cur.Close() //nolint:errcheck // read-only handles
	}
	sw.cursors = nil
}
