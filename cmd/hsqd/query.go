package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/query"
)

// This file is hsqd's read side: the three per-stream read routes, served
// by one URL→hsq.Request parser and one responder, and POST /query plans,
// evaluated against one source. Both work the same on a single node and on
// any node of a cluster: what this node stores answers locally, what
// another shard owns answers from a member's shard summary.

// readRoute is one of the per-stream read routes. It fixes which parameter
// carries the targets and which keys the reply uses; quick=1, window=K and
// max-reads=N mean the same on all three.
type readRoute string

const (
	routeQuantile  readRoute = "quantile"  // ?phi=φ     → "value"
	routeQuantiles readRoute = "quantiles" // ?phi=φ,φ,… → "values"
	routeRank      readRoute = "rank"      // ?v=x       → "rank", "total"
)

// parseRead turns a read route's URL parameters into the one hsq.Request.
func parseRead(route readRoute, q url.Values) (hsq.Request, error) {
	var req hsq.Request
	switch route {
	case routeQuantile:
		phi, err := strconv.ParseFloat(q.Get("phi"), 64)
		if err != nil {
			return req, fmt.Errorf("bad phi: %v", err)
		}
		req.Phis = []float64{phi}
	case routeQuantiles:
		for _, part := range strings.Split(q.Get("phi"), ",") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			phi, err := strconv.ParseFloat(part, 64)
			if err != nil {
				return req, fmt.Errorf("bad phi %q: %v", part, err)
			}
			req.Phis = append(req.Phis, phi)
		}
		if len(req.Phis) == 0 {
			return req, errors.New("no phi values")
		}
	case routeRank:
		v, err := strconv.ParseInt(q.Get("v"), 10, 64)
		if err != nil {
			return req, fmt.Errorf("bad v: %v", err)
		}
		req.Values = []int64{v}
	}
	req.Quick = q.Get("quick") == "1"
	if win := q.Get("window"); win != "" {
		n, err := strconv.Atoi(win)
		if err == nil && n <= 0 {
			err = fmt.Errorf("must be positive, got %d", n)
		}
		if err != nil {
			return req, fmt.Errorf("bad window: %v", err)
		}
		req.Window = n
	}
	if mr := q.Get("max-reads"); mr != "" {
		n, err := strconv.Atoi(mr)
		if err != nil || n < 0 {
			return req, fmt.Errorf("bad max-reads %q", mr)
		}
		req.MaxReads = n
	}
	return req, nil
}

// read serves one /streams/{name}/... read route: local when this node
// stores the stream, 404 when the stream would live here and does not
// exist. When another shard owns {name} (cluster mode) the executor is a
// member's shard summary, fetched as POST /query fetches it and answered by
// hsq.QuickAnswer — the function the local Quick branch runs — so the answer
// is always quick, max-reads is moot (no disk sits behind a summary) and
// window= is refused: windows need the owning shard's partitions. Rank and
// total come from the one snapshot either way.
func (s *server) read(route readRoute) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		st, ok := s.db.Lookup(name)
		if !ok && s.member(name) {
			httpError(w, http.StatusNotFound, "unknown stream %q", name)
			return
		}
		req, err := parseRead(route, r.URL.Query())
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		var ans hsq.Answer
		if st != nil {
			ans, err = st.Query(r.Context(), req)
		} else {
			// One fetch through POST /query's source, with its one error
			// mapping: a window is refused before any fetch.
			sum, ferr := (&planSource{s: s, ctx: r.Context()}).ScopedSummary(name, query.Scope{Window: req.Window})
			if ferr != nil {
				httpError(w, planStatus(ferr), "%v", ferr)
				return
			}
			// A stream with no data anywhere reachable is "unknown", like
			// the local path's 404.
			if sum == nil || sum.N == 0 {
				httpError(w, http.StatusNotFound, "unknown stream %q", name)
				return
			}
			var c *core.Combined
			if c, _, err = core.MergeShardSummaries([]*core.ShardSummary{sum}); err == nil {
				ans, err = hsq.QuickAnswer(c, req)
			}
		}
		if err != nil {
			op := string(route)
			if req.Window != 0 {
				op = "window " + op
			}
			httpError(w, http.StatusBadRequest, "%s: %v", op, err)
			return
		}
		var reply map[string]any
		switch route {
		case routeQuantile:
			reply = map[string]any{"stream": name, "phi": req.Phis[0], "value": ans.Values[0], "quick": req.Quick}
		case routeQuantiles:
			reply = map[string]any{
				"stream": name, "phi": req.Phis, "values": ans.Values,
				"disk_reads": ans.Stats.RandReads, "truncated": ans.Stats.Truncated,
			}
		case routeRank:
			reply = map[string]any{"stream": name, "v": req.Values[0], "rank": ans.Values[0], "total": ans.N}
		}
		if st == nil {
			reply["quick"], reply["remote"] = true, true
		}
		writeJSON(w, reply)
	}
}

// member reports whether this node stores the named stream's data: always
// on a single node, by ring placement in a cluster.
func (s *server) member(name string) bool { return s.cl == nil || s.cl.Member(name) }

// maxQueryBody bounds a POST /query plan document. Plans are small JSON
// objects; anything near this limit is malformed or hostile.
const maxQueryBody = 1 << 20

// handleQuery answers POST /query: a composable query plan in, per-group
// quantile envelopes out. The body is the JSON plan (internal/query.Plan):
//
//	{"match": "api.*", "group_by": 2, "phis": [0.5, 0.99],
//	 "window": {"steps": 10, "slide": 5, "count": 3}, "as_of_step": 0}
//
// Summaries of streams this node stores are local (cold streams answer
// from their sealed sidecars without hydrating). In cluster mode explicit
// streams other shards own are answered through the shard-summary fan-out
// — full-history scope only, like the per-stream reads; glob patterns
// expand against this node's directory. A quantile over the union of
// streams wherever their shards live is {"streams": [...], "phis": [φ]}.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBody+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxQueryBody {
		httpError(w, http.StatusRequestEntityTooLarge, "plan exceeds %d bytes", maxQueryBody)
		return
	}
	plan, err := query.ParsePlan(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad plan: %v", err)
		return
	}
	res, err := query.Exec(&planSource{s: s, ctx: r.Context()}, plan)
	if err != nil {
		httpError(w, planStatus(err), "query: %v", err)
		return
	}
	writeJSON(w, res)
}

// planStatus maps an error from a planSource fetch or a plan to its status:
// a cluster-transport failure is 502, anything else — a bad plan, a scope a
// remote stream cannot serve — 400.
func planStatus(err error) int {
	if errors.Is(err, errFetch) {
		return http.StatusBadGateway
	}
	return http.StatusBadRequest
}

// errFetch marks a cluster-transport failure (502, not the 400 a bad plan
// earns).
var errFetch = errors.New("fetch summary")

// planSource is the query source of POST /query and of the read routes'
// remote branch: streams this node stores answer locally (scoped,
// sidecar-aware), streams other shards own answer from a summary fetched
// fresh from the first member that serves it — one fetch per remote member
// per read, so every answer covers each confirmed step. Remote streams carry
// only full-history summaries over the wire, so scoped (window/as-of) reads
// refuse them — ask a member node.
type planSource struct {
	s   *server
	ctx context.Context
}

func (ps *planSource) Streams() []string { return ps.s.db.Streams() }

func (ps *planSource) ScopedSummary(name string, sc query.Scope) (*core.ShardSummary, error) {
	if ps.s.member(name) {
		return ps.s.db.ScopedSummary(name, sc)
	}
	if !sc.IsFull() {
		return nil, fmt.Errorf("windowed/as-of queries are not available for remote stream %q; ask a member node", name)
	}
	sum, err := ps.s.cl.Summary(ps.ctx, name)
	if err != nil {
		return nil, fmt.Errorf("%w for %q: %w", errFetch, name, err)
	}
	return sum, nil // nil: no data anywhere reachable, an empty contribution
}
