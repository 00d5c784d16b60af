package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/partition"
)

// This file implements the accurate query (Algorithms 6-8) as one shared
// multi-target sweep: generate filters from the combined summary, then
// bisect the value space, computing at each probe z the exact rank of z in
// every partition (block-granular binary search seeded from the summaries)
// plus the SS-based stream rank estimate, until the estimate is within ε·m
// of a target rank — resolving every rank target together
// (AccurateMultiQueryOpts), with an optional per-snapshot rank-probe memo
// (QueryOptions.Memo). A single-target query is the k=1 case.
//
// One deliberate refinement over the paper's pseudocode: Algorithm 8
// returns the accepted midpoint z itself, which need not be an element of
// T. We instead snap z to the largest known element ≤ z (the per-partition
// predecessors sit right at the cursors' final boundary positions, usually
// in an already-pinned block; the stream predecessor comes from SS). The
// snapped element's rank differs from rank(z) by at most ~ε₂m additional
// stream uncertainty, so the O(ε·m) guarantee of Lemma 5 is preserved — and
// when the stream is empty the answer becomes the exact quantile.

// mtTarget is one rank target of a shared sweep: its current bisection
// interval plus the result slots it fills (duplicate φ values collapse to
// one target with several slots).
type mtTarget struct {
	r    int64
	fr   float64
	u, v int64
	out  []int
}

// sweep carries the shared state of one multi-target bisection: the
// combined summary, the acceptance band, the (atomic) backend-read budget
// and the aggregated cost counters. Parallel subranges run against
// independent cursor sets but share the budget and the counters.
type sweep struct {
	c    *Combined
	em   float64
	opts QueryOptions
	ans  []int64

	reads     atomic.Int64 // backend reads spent, across all cursor sets
	iters     atomic.Int64
	memoHits  atomic.Int64
	truncated atomic.Bool

	mu                       sync.Mutex
	ioReads, ioHits, ioSkips int // folded in by cursorSet.close
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
// Truncated set); Interrupt is polled before every probe; Parallel probes
// partitions concurrently within a probe AND walks independent subranges
// of the sweep concurrently, each with its own cursor set. Memo, when
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

	cs := sw.newCursorSet()
	err := sw.solve(live, cs)
	cs.close()

	cost.Iterations = int(sw.iters.Load())
	cost.MemoHits = int(sw.memoHits.Load())
	sw.mu.Lock()
	cost.RandReads, cost.CacheHits, cost.SkippedBlocks = sw.ioReads, sw.ioHits, sw.ioSkips
	sw.mu.Unlock()
	cost.Truncated = sw.truncated.Load()
	if err != nil {
		return nil, cost, err
	}
	return ans, cost, nil
}

// solve resolves one group of targets whose intervals share a hull. Each
// probe at the hull midpoint classifies every target — move its upper
// filter down, its lower filter up, or accept — and the left/right groups
// recurse over disjoint subranges (concurrently under opts.Parallel).
// Targets whose interval collapses to adjacent filters wait for finish.
func (sw *sweep) solve(ts []*mtTarget, cs *cursorSet) error {
	if len(ts) == 0 {
		return nil
	}
	if sw.opts.Interrupt != nil {
		if err := sw.opts.Interrupt(); err != nil {
			return err
		}
	}
	if sw.exhausted() {
		// Another subrange (or an earlier probe) spent the whole budget:
		// answer from the in-memory summary alone, zero reads.
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
		return sw.finish(endgame, cs)
	}

	// Probe the midpoint of the FIRST live target's interval, not the
	// group hull's: the lowest target then walks exactly the probe sequence
	// its solo bisection would (so a sweep never costs more probes than the
	// equivalent single-target calls), while every other target whose
	// interval brackets z still narrows for free. A hull midpoint looks
	// more balanced but lands in the no-man's-land between disjoint target
	// filters, spending probes that advance nobody.
	z := live[0].u + (live[0].v-live[0].u)/2
	sw.iters.Add(1)
	rho, hist, e, fromMemo, err := sw.probe(cs, z)
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
				accAns, used, err = sw.snapDownAt(cs, z, hist, e, fromMemo)
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
		sw.memoHits.Add(1)
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
					if accAns, _, err = sw.snapDownAt(cs, z, hist, e, fromMemo); err != nil {
						return err
					}
					accDone = true
				}
				sw.resolve(t, accAns)
			}
		}
		sw.truncated.Store(true)
		left, right = nil, nil
		return sw.quickAll(append(rest, endgame...))
	}
	if len(left) > 0 && len(right) > 0 && sw.opts.Parallel {
		// Independent subranges: walk the right half on its own cursor set.
		cs2 := sw.newCursorSet()
		var wg sync.WaitGroup
		var rerr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cs2.close()
			rerr = sw.solve(right, cs2)
		}()
		lerr := sw.solve(left, cs)
		wg.Wait()
		if lerr != nil {
			return lerr
		}
		if rerr != nil {
			return rerr
		}
	} else {
		if err := sw.solve(left, cs); err != nil {
			return err
		}
		if err := sw.solve(right, cs); err != nil {
			return err
		}
	}
	return sw.finish(endgame, cs)
}

// finish resolves endgame targets — adjacent filters v = u+1 — exactly as
// the single-target endgame: one probe at u decides predecessor (rank(u)
// already reaches the target) versus successor. Targets sharing a u share
// the probe; this is the "+k" term of the sweep's probe bound.
func (sw *sweep) finish(ts []*mtTarget, cs *cursorSet) error {
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
		sw.iters.Add(1)
		rho, hist, e, fromMemo, err := sw.probe(cs, u)
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
					downAns, used, err = sw.snapDownAt(cs, u, hist, e, fromMemo)
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
					upAns, used, err = sw.snapUpAt(cs, u, hist, e, fromMemo)
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
			sw.memoHits.Add(1)
		}
	}
	return nil
}

// probe computes the rank estimate at z: the stream-side estimate plus the
// exact historical rank, the latter from the memo when it already holds z.
func (sw *sweep) probe(cs *cursorSet, z int64) (rho float64, hist int64, e partition.MemoEntry, fromMemo bool, err error) {
	sRho := sw.c.StreamRankEstimate(z)
	if sw.opts.Memo != nil {
		if e, ok := sw.opts.Memo.Lookup(z); ok {
			return sRho + float64(e.Rank), e.Rank, e, true, nil
		}
	}
	hist, err = sw.cursorProbe(cs, z)
	if err != nil {
		return 0, 0, e, false, err
	}
	return sRho + float64(hist), hist, e, false, nil
}

// cursorProbe runs the real per-partition rank search at z, charging the
// backend-read budget and recording the result in the memo.
func (sw *sweep) cursorProbe(cs *cursorSet, z int64) (int64, error) {
	cursors, err := cs.open()
	if err != nil {
		return 0, err
	}
	for _, cur := range cursors {
		cur.SeekTo(z)
	}
	hist, err := histRank(cursors, z, sw.opts.Parallel)
	cs.charge()
	if err != nil {
		return 0, err
	}
	if sw.opts.Memo != nil {
		sw.opts.Memo.StoreRank(z, hist)
	}
	return hist, nil
}

// snapDownAt snaps an accepted probe z to the largest known element ≤ z.
// The historical side comes from the memo when the entry carries it;
// otherwise from the cursors, refreshing their state with a real probe
// first if the rank itself came from the memo. used reports whether any
// cursor work happened.
func (sw *sweep) snapDownAt(cs *cursorSet, z, hist int64, e partition.MemoEntry, fromMemo bool) (ans int64, used bool, err error) {
	if fromMemo && e.PredKnown {
		ans, err = snapDownFrom(sw.c, e.Pred, e.PredExists, z)
		return ans, false, err
	}
	if fromMemo {
		if _, err := sw.cursorProbe(cs, z); err != nil {
			return 0, true, err
		}
	}
	pe, ok, err := histPred(cs.cursors)
	cs.charge()
	if err != nil {
		return 0, true, err
	}
	if sw.opts.Memo != nil {
		sw.opts.Memo.SetPred(z, hist, pe, ok)
	}
	ans, err = snapDownFrom(sw.c, pe, ok, z)
	return ans, true, err
}

// snapUpAt is snapDownAt's mirror: the smallest known element > z.
func (sw *sweep) snapUpAt(cs *cursorSet, z, hist int64, e partition.MemoEntry, fromMemo bool) (ans int64, used bool, err error) {
	if fromMemo && e.SuccKnown {
		ans, err = snapUpFrom(sw.c, e.Succ, e.SuccExists, z)
		return ans, false, err
	}
	if fromMemo {
		if _, err := sw.cursorProbe(cs, z); err != nil {
			return 0, true, err
		}
	}
	se, ok, err := histSucc(cs.cursors)
	cs.charge()
	if err != nil {
		return 0, true, err
	}
	if sw.opts.Memo != nil {
		sw.opts.Memo.SetSucc(z, hist, se, ok)
	}
	ans, err = snapUpFrom(sw.c, se, ok, z)
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
	sw.truncated.Store(true)
	return nil
}

// resolve writes a target's answer into its result slots (slots are
// disjoint across targets, so concurrent subranges never collide).
func (sw *sweep) resolve(t *mtTarget, v int64) {
	for _, i := range t.out {
		sw.ans[i] = v
	}
}

// exhausted reports whether the shared backend-read budget is spent.
func (sw *sweep) exhausted() bool {
	return sw.opts.MaxReads > 0 && sw.reads.Load() >= int64(sw.opts.MaxReads)
}

// cursorSet is one subrange walker's set of partition cursors, opened
// lazily so fully memo-resolved queries never touch the store at all.
type cursorSet struct {
	sw        *sweep
	cursors   []*partition.Cursor
	opened    bool
	lastReads int
}

func (sw *sweep) newCursorSet() *cursorSet { return &cursorSet{sw: sw} }

// open creates the cursors on first use. The seed range is irrelevant —
// every probe re-seeds its bracket with SeekTo.
func (cs *cursorSet) open() ([]*partition.Cursor, error) {
	if cs.opened {
		return cs.cursors, nil
	}
	for _, s := range cs.sw.c.sums {
		cur, err := partition.NewCursor(s, 0, 0, cs.sw.opts.PinBlocks)
		if err != nil {
			cs.close()
			return nil, err
		}
		cs.cursors = append(cs.cursors, cur)
	}
	cs.opened = true
	return cs.cursors, nil
}

// charge adds this set's backend reads since the last charge to the
// sweep's shared budget.
func (cs *cursorSet) charge() {
	total := 0
	for _, cur := range cs.cursors {
		total += cur.Reads()
	}
	if d := total - cs.lastReads; d > 0 {
		cs.lastReads = total
		cs.sw.reads.Add(int64(d))
	}
}

// close folds the set's I/O counters into the sweep and releases the
// cursors.
func (cs *cursorSet) close() {
	var reads, hits, skips int
	for _, cur := range cs.cursors {
		reads += cur.Reads()
		hits += cur.CacheHits()
		skips += cur.Skips()
		cur.Close() //nolint:errcheck // read-only handles
	}
	cs.cursors = nil
	cs.opened = false
	cs.sw.mu.Lock()
	cs.sw.ioReads += reads
	cs.sw.ioHits += hits
	cs.sw.ioSkips += skips
	cs.sw.mu.Unlock()
}
