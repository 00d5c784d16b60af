// Package query is the composable query layer over the warehouse's
// mergeable summaries: a small set of operators — stream-set selection
// (explicit lists and '.'-hierarchy glob patterns), summary merge, group-by
// over name segments, time-step windows (tumbling and sliding) and AsOfStep
// time-travel — compiled into a Plan and evaluated lazily by Exec against a
// Source of per-stream scoped summaries.
//
// The layer never merges data, only summaries: every member stream
// contributes one core.ShardSummary restricted to the plan's step scope,
// the members of a group are merged with core.MergeShardSummaries, and
// quantiles are answered by quick queries on the merged summary. Because
// the per-item rank bands of the combined summary are merge-invariant, a
// merged or grouped answer carries the same composed guarantee as a
// single-stream quick answer: rank error at most ⌈1.5·ε·N⌉ where N is the
// union size (Combined.QuickRankError).
//
// Plans are plain JSON so the same object drives the db.Query() builder,
// hsqd's POST /query endpoint and the wire protocol's Subscribe frames.
package query

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Plan is one compiled query: which streams, how to group them, which step
// scopes to evaluate, and which quantiles to answer. The zero value is
// invalid; construct via JSON (ParsePlan) or a builder and check Validate.
type Plan struct {
	// Streams lists explicit member streams. A listed stream must exist at
	// evaluation time; it does not need to match Match.
	Streams []string `json:"streams,omitempty"`
	// Match is a glob over the '.'-separated stream-name hierarchy; every
	// matching stream in the source's directory joins the member set. See
	// MatchStream for the pattern language.
	Match string `json:"match,omitempty"`
	// GroupBy, when positive, partitions the member set by the 1-based
	// '.'-separated segment of the stream name (e.g. 2 groups
	// "api.eu.latency" and "api.us.latency" by region). Zero merges all
	// members into a single group.
	GroupBy int `json:"group_by,omitempty"`
	// Window, when set, evaluates one or more step windows per group
	// instead of the full history.
	Window *WindowSpec `json:"window,omitempty"`
	// AsOfStep, when positive, time-travels the evaluation: only data from
	// time steps ≤ AsOfStep is visible, and the live (unsealed) buffer is
	// excluded. Steps are counted per member stream.
	AsOfStep int `json:"as_of_step,omitempty"`
	// Phis are the quantile targets, each in (0, 1).
	Phis []float64 `json:"phis"`
}

// WindowSpec describes the window set of a plan: Count windows of Steps
// time steps each, the i-th ending i·Slide steps before the evaluation end
// (the newest sealed step, or AsOfStep). Slide = Steps is a tumbling
// window series; Slide < Steps overlaps (sliding). Windows are evaluated
// relative to each member stream's own step counter.
type WindowSpec struct {
	// Steps is the window length in time steps (> 0).
	Steps int `json:"steps"`
	// Slide is the step offset between consecutive windows; 0 defaults to
	// Steps (tumbling).
	Slide int `json:"slide,omitempty"`
	// Count is the number of windows, newest first; 0 defaults to 1.
	Count int `json:"count,omitempty"`
}

// Scope restricts a stream's summary to a step range. The zero Scope is
// the full history including the live buffer.
type Scope struct {
	// Window, when positive, keeps only a window of that many steps.
	Window int
	// Back shifts the evaluation end Back steps into the past. Any shift
	// excludes the live buffer — it belongs to the current step.
	Back int
	// AsOf, when positive, pins the evaluation end to that absolute step
	// and excludes the live buffer.
	AsOf int
}

// IsFull reports whether the scope is the unrestricted full history — the
// only scope answerable from a remote shard's full summary.
func (sc Scope) IsFull() bool { return sc == Scope{} }

// Select resolves the scope against a stream's spans — the paper's window
// rule (§2.4): a step range is answerable iff both its ends are span
// boundaries. ends lists the last step of every span, oldest first: span i
// covers steps (ends[i-1], ends[i]], the first one starting after step 0.
// A hydrated engine passes its partitions' EndSteps followed by one end per
// sealed-but-uninstalled step, a cold stream its sidecar's partitions, a
// never-sealed stream nothing. The scope covers spans [lo, hi); live
// reports whether the unsealed buffer, which belongs to the current
// incomplete step, is in scope too (no Back shift, no AsOf pin). Background
// merges coarsen the boundaries over time, so old cut points disappear.
// This is the only place a step scope is checked, so every surface —
// Query{Window}, plan members hot and cold, a peer's summary fetch —
// refuses the same scopes with the same text.
func (sc Scope) Select(ends []int) (lo, hi int, live bool, err error) {
	if sc.Window < 0 || sc.Back < 0 || sc.AsOf < 0 {
		return 0, 0, false, fmt.Errorf("hsq: invalid scope %+v", sc)
	}
	latest := 0
	if len(ends) > 0 {
		latest = ends[len(ends)-1]
	}
	end, live := latest, true
	if sc.AsOf > 0 {
		if sc.AsOf > latest {
			return 0, 0, false, fmt.Errorf("hsq: as_of_step %d is beyond the newest sealed step %d", sc.AsOf, latest)
		}
		end, live = sc.AsOf, false
	}
	if sc.Back > 0 {
		end, live = end-sc.Back, false
		if end < 0 {
			return 0, 0, false, fmt.Errorf("hsq: window shifted %d steps back ends before the first step (newest is %d)", sc.Back, latest)
		}
	}
	start := 0
	if sc.Window > 0 {
		if start = end - sc.Window; start < 0 {
			return 0, 0, false, fmt.Errorf("hsq: window of %d steps ending at step %d extends before the first step", sc.Window, end)
		}
	}
	// A step cuts the list after the spans that end at or before it, and
	// is a boundary iff it is 0 or the last of those ends exactly there.
	cut := func(step int) (int, bool) {
		i := sort.SearchInts(ends, step+1)
		return i, step == 0 || i > 0 && ends[i-1] == step
	}
	lo, loOK := cut(start)
	hi, hiOK := cut(end)
	if !loOK || !hiOK {
		return 0, 0, false, fmt.Errorf("hsq: step range (%d, %d] does not align with partition boundaries (available: %v)",
			start, end, append([]int{0}, ends...))
	}
	return lo, hi, live, nil
}

// ParsePlan decodes and validates a JSON plan. Unknown fields are
// rejected so a typo'd operator fails loudly instead of silently widening
// the query.
func ParsePlan(data []byte) (*Plan, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("query: parse plan: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("query: parse plan: trailing data after plan object")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Validate checks the plan's shape without touching any stream.
func (p *Plan) Validate() error {
	if len(p.Streams) == 0 && p.Match == "" {
		return fmt.Errorf("query: plan selects no streams (need streams or match)")
	}
	for _, name := range p.Streams {
		if name == "" {
			return fmt.Errorf("query: empty stream name in streams list")
		}
	}
	if p.Match != "" {
		if err := ValidatePattern(p.Match); err != nil {
			return err
		}
	}
	if p.GroupBy < 0 {
		return fmt.Errorf("query: group_by must be ≥ 0, got %d", p.GroupBy)
	}
	if p.AsOfStep < 0 {
		return fmt.Errorf("query: as_of_step must be ≥ 0, got %d", p.AsOfStep)
	}
	if w := p.Window; w != nil {
		if w.Steps <= 0 {
			return fmt.Errorf("query: window steps must be > 0, got %d", w.Steps)
		}
		if w.Slide < 0 || w.Count < 0 {
			return fmt.Errorf("query: window slide and count must be ≥ 0")
		}
	}
	if len(p.Phis) == 0 {
		return fmt.Errorf("query: plan has no phis")
	}
	for _, phi := range p.Phis {
		if !(phi > 0 && phi < 1) {
			return fmt.Errorf("query: phi must be in (0,1), got %g", phi)
		}
	}
	return nil
}

// Scopes expands the plan's window spec and as-of step into the concrete
// scope list every group is evaluated under, newest window first.
func (p *Plan) Scopes() []Scope {
	if p.Window == nil {
		return []Scope{{AsOf: p.AsOfStep}}
	}
	slide := p.Window.Slide
	if slide == 0 {
		slide = p.Window.Steps
	}
	count := p.Window.Count
	if count == 0 {
		count = 1
	}
	out := make([]Scope, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, Scope{Window: p.Window.Steps, Back: i * slide, AsOf: p.AsOfStep})
	}
	return out
}

// GroupKey returns the grouping key for a member stream name: the plan's
// 1-based name segment, or "" when the plan has no group-by. A name with
// too few segments is an evaluation error — the member set was selected by
// an explicit list or a pattern that doesn't constrain segment count.
func (p *Plan) GroupKey(name string) (string, error) {
	if p.GroupBy == 0 {
		return "", nil
	}
	segs := strings.Split(name, ".")
	if p.GroupBy > len(segs) {
		return "", fmt.Errorf("query: group_by segment %d out of range for stream %q (%d segments)",
			p.GroupBy, name, len(segs))
	}
	return segs[p.GroupBy-1], nil
}

// MatchesStream reports whether the plan's member selection covers the
// stream: listed explicitly, or matching the glob. Continuous queries use
// this to decide which EndStep events make a subscription dirty.
func (p *Plan) MatchesStream(name string) bool {
	for _, s := range p.Streams {
		if s == name {
			return true
		}
	}
	if p.Match == "" {
		return false
	}
	ok, err := MatchStream(p.Match, name)
	return err == nil && ok
}
