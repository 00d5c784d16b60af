package query

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// Source is what a plan evaluates against: a stream directory plus
// per-stream scoped summaries. The DB implements it locally (hydrated
// streams answer from their live engine, cold streams from their sealed
// summary sidecar — never hydrating); hsqd's cluster mode implements it
// with the SummaryReq fan-out for streams other shards own.
type Source interface {
	// Streams returns a sorted point-in-time snapshot of the stream
	// directory, used to expand glob patterns.
	Streams() []string
	// ScopedSummary returns the stream's shard summary restricted to the
	// scope. An unknown stream is an error; an existing stream with no
	// data in scope returns an N == 0 summary.
	ScopedSummary(name string, sc Scope) (*core.ShardSummary, error)
}

// Result is the evaluation of one plan: the member set, and per group a
// series of windows each carrying the merged quantile envelope.
type Result struct {
	// Streams is the full member set the plan selected, sorted.
	Streams []string `json:"streams"`
	// Phis echoes the plan's quantile targets; every window's Values
	// aligns with it.
	Phis []float64 `json:"phis"`
	// Groups is sorted by key ("" for the single merged group).
	Groups []GroupResult `json:"groups"`
}

// GroupResult is one group-by bucket: its member streams and the windows
// evaluated over their merged summaries.
type GroupResult struct {
	// Key is the grouping name segment; empty without group-by.
	Key string `json:"key,omitempty"`
	// Streams is the group's member set, sorted.
	Streams []string `json:"streams"`
	// Windows is the scope series, newest window first (a single entry
	// for an unwindowed plan).
	Windows []WindowResult `json:"windows"`
}

// WindowResult is the merged quantile envelope for one group under one
// scope. Values[i] answers Phis[i] by a quick query over the merged
// summary; the answer's rank error is at most RankError — the composed
// ⌈1.5·ε·N⌉ bound, identical to a single-stream quick answer because the
// summary's rank bands are merge-invariant.
type WindowResult struct {
	// Steps/Back/AsOfStep echo the scope (all zero for full history).
	Steps    int `json:"steps,omitempty"`
	Back     int `json:"back,omitempty"`
	AsOfStep int `json:"as_of_step,omitempty"`
	// N is the merged element count in scope. When 0 the group has no
	// data in this scope and Values is absent.
	N int64 `json:"n"`
	// Epsilon is the composed error parameter; RankError = ⌈1.5·ε·N⌉.
	Epsilon   float64 `json:"epsilon,omitempty"`
	RankError int64   `json:"rank_error,omitempty"`
	Values    []int64 `json:"values,omitempty"`
}

// Exec evaluates the plan against the source. Construction is lazy — a
// Plan touches no stream until here — and evaluation pulls exactly one
// scoped summary per (member, window) pair, fetched concurrently, then
// merges and answers in memory. No raw data moves: the only per-stream
// cost is its summary.
func Exec(src Source, p *Plan) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	members, err := ExpandStreams(p, src.Streams())
	if err != nil {
		return nil, err
	}
	groups := make(map[string][]string)
	for _, name := range members {
		key, err := p.GroupKey(name)
		if err != nil {
			return nil, err
		}
		groups[key] = append(groups[key], name)
	}
	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	scopes := p.Scopes()

	// One concurrent fetch per (member, scope): summaries are independent
	// snapshots, so there is nothing to order.
	type fetch struct {
		name string
		sc   Scope
		sum  *core.ShardSummary
		err  error
	}
	var fetches []*fetch
	byPair := make(map[string]map[Scope]*fetch, len(members))
	for _, name := range members {
		byPair[name] = make(map[Scope]*fetch, len(scopes))
		for _, sc := range scopes {
			f := &fetch{name: name, sc: sc}
			byPair[name][sc] = f
			fetches = append(fetches, f)
		}
	}
	var wg sync.WaitGroup
	for _, f := range fetches {
		wg.Add(1)
		go func(f *fetch) {
			defer wg.Done()
			f.sum, f.err = src.ScopedSummary(f.name, f.sc)
		}(f)
	}
	wg.Wait()
	for _, f := range fetches {
		if f.err != nil {
			return nil, fmt.Errorf("query: stream %q: %w", f.name, f.err)
		}
	}

	res := &Result{Streams: members, Phis: p.Phis}
	for _, key := range keys {
		gr := GroupResult{Key: key, Streams: groups[key]}
		for _, sc := range scopes {
			sums := make([]*core.ShardSummary, 0, len(gr.Streams))
			for _, name := range gr.Streams {
				sums = append(sums, byPair[name][sc].sum)
			}
			wr, err := answer(sums, sc, p.Phis)
			if err != nil {
				return nil, fmt.Errorf("query: group %q: %w", key, err)
			}
			gr.Windows = append(gr.Windows, wr)
		}
		res.Groups = append(res.Groups, gr)
	}
	return res, nil
}

// answer merges one group's scoped summaries and runs the quick quantile
// queries on the merged combined summary.
func answer(sums []*core.ShardSummary, sc Scope, phis []float64) (WindowResult, error) {
	wr := WindowResult{Steps: sc.Window, Back: sc.Back, AsOfStep: sc.AsOf}
	merged, total, err := core.MergeShardSummaries(sums)
	if err != nil {
		return wr, err
	}
	if merged == nil || total == 0 {
		return wr, nil
	}
	wr.N = total
	wr.Epsilon = merged.Epsilon()
	wr.RankError = merged.QuickRankError()
	wr.Values = make([]int64, len(phis))
	for i, phi := range phis {
		r, err := core.RankTarget(phi, total)
		if err != nil {
			return wr, err
		}
		v, err := merged.QuickQuery(r)
		if err != nil {
			return wr, err
		}
		wr.Values[i] = v
	}
	return wr, nil
}
