package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// This file is hsqd's coordinator mode: the handlers and forwarding glue
// that turn any node of a -cluster-peers deployment into a full front
// door. Writes for streams this node does not store are forwarded to the
// owning shard over the wire protocol; reads for such streams are answered
// from a member's shard summary; /cluster/quantile merges shard summaries
// across streams into one combined answer (the paper's summary-merge
// query, Section 6, applied across nodes).

// handleHealthz is the liveness probe: it touches no locks and no stats,
// so it answers even while ingest, maintenance and stats endpoints are
// busy. The body is fixed.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, "{\"status\":\"ok\"}\n") //nolint:errcheck
}

// handleCluster reports the cluster configuration and this node's view of
// it: membership epoch (mismatched epochs across nodes mean a botched
// rolling restart), placement counts for locally known streams, and the
// relay channels' replication lag (pending = frames applied here but not
// yet acknowledged by a follower).
func (s *server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cl == nil {
		writeJSON(w, map[string]any{"enabled": false})
		return
	}
	ring := s.cl.Ring()
	stored := make(map[string]int)
	owned := make(map[string]int)
	for _, name := range s.db.Streams() {
		for i, n := range ring.Members(name) {
			stored[n.ID]++
			if i == 0 {
				owned[n.ID]++
			}
		}
	}
	nodes := make([]map[string]any, 0, len(ring.Nodes()))
	for _, n := range ring.Nodes() {
		nodes = append(nodes, map[string]any{
			"id":             n.ID,
			"addr":           n.Addr,
			"streams_stored": stored[n.ID],
			"streams_owned":  owned[n.ID],
		})
	}
	writeJSON(w, map[string]any{
		"enabled":       true,
		"epoch":         ring.Epoch(),
		"replicas":      ring.Replicas(),
		"self":          s.cl.Self().ID,
		"nodes":         nodes,
		"relays":        s.cl.Stats(),
		"summary_cache": s.cl.SummaryCacheStats(),
	})
}

// shardSummary resolves one stream's shard summary from wherever it
// lives: locally when this node stores the stream, otherwise from the
// first member that answers — consulting the cluster's summary cache
// first, so a dashboard re-polling the coordinator does not re-dial every
// shard (entries expire after a short TTL and drop eagerly on observed
// EndStep traffic). A nil summary means the stream holds no data anywhere
// reachable.
func (s *server) shardSummary(ctx context.Context, name string) (*core.ShardSummary, error) {
	if s.cl == nil || s.cl.Member(name) {
		st, ok := s.db.Lookup(name)
		if !ok {
			return nil, nil
		}
		return st.Summary()
	}
	var lastErr error
	for _, n := range s.cl.Ring().Members(name) {
		sum, err := s.cl.CachedSummary(ctx, n, name)
		if err != nil {
			lastErr = err
			continue
		}
		return sum, nil
	}
	return nil, lastErr
}

// handleClusterQuantile answers a quantile over the UNION of several
// streams — wherever their shards live — by gathering one core.ShardSummary
// per stream and merging them (core.MergeShardSummaries → Combined →
// QuickQuery). The answer's rank error is within 1.5·ε·N of the union's
// total count N (Lemma 3 under summary composition). Streams with no data
// contribute zero. Works single-node too, where every summary is local.
//
//	GET /cluster/quantile?streams=a,b,c&phi=0.95
func (s *server) handleClusterQuantile(w http.ResponseWriter, r *http.Request) {
	var streams []string
	for _, part := range strings.Split(r.URL.Query().Get("streams"), ",") {
		if part = strings.TrimSpace(part); part != "" {
			streams = append(streams, part)
		}
	}
	if len(streams) == 0 {
		httpError(w, http.StatusBadRequest, "no streams")
		return
	}
	phi, err := strconv.ParseFloat(r.URL.Query().Get("phi"), 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad phi: %v", err)
		return
	}
	// Scatter-gather: every stream's summary resolves concurrently (local
	// lookups and peer fetches alike) instead of dialing shards one after
	// another, so the request's latency is the slowest single fetch.
	sums := make([]*core.ShardSummary, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, name := range streams {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sums[i], errs[i] = s.shardSummary(r.Context(), name)
		}(i, name)
	}
	wg.Wait()
	for i, ferr := range errs {
		if ferr != nil {
			httpError(w, http.StatusBadGateway, "stream %q: %v", streams[i], ferr)
			return
		}
	}
	merged, total, err := core.MergeShardSummaries(sums)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "merge: %v", err)
		return
	}
	if total == 0 {
		httpError(w, http.StatusNotFound, "no data in streams %v", streams)
		return
	}
	v, err := merged.QuickQuery(max(int64(phi*float64(total)), 1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "quantile: %v", err)
		return
	}
	writeJSON(w, map[string]any{
		"streams": streams, "phi": phi, "value": v, "n": total, "quick": true,
	})
}

// remoteSummary fetches the merged view of a single remote stream for the
// per-stream read fallbacks. 404 semantics match the local path: a stream
// with no data anywhere is "unknown".
func (s *server) remoteSummary(w http.ResponseWriter, r *http.Request, name string) (*core.Combined, int64, bool) {
	sum, err := s.shardSummary(r.Context(), name)
	if err != nil {
		httpError(w, http.StatusBadGateway, "stream %q: %v", name, err)
		return nil, 0, false
	}
	if sum == nil || sum.N == 0 {
		httpError(w, http.StatusNotFound, "unknown stream %q", name)
		return nil, 0, false
	}
	merged, total, err := core.MergeShardSummaries([]*core.ShardSummary{sum})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "stream %q: %v", name, err)
		return nil, 0, false
	}
	return merged, total, true
}

// remoteQuantile answers GET /streams/{name}/quantile for a stream this
// node does not store: fetch one member's shard summary, answer quick.
// window= is refused — windows need the owning shard's full state.
func (s *server) remoteQuantile(name string, w http.ResponseWriter, r *http.Request) {
	phi, err := strconv.ParseFloat(r.URL.Query().Get("phi"), 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad phi: %v", err)
		return
	}
	if r.URL.Query().Get("window") != "" {
		httpError(w, http.StatusBadRequest, "window queries are not available for remote stream %q; ask a member node", name)
		return
	}
	c, total, ok := s.remoteSummary(w, r, name)
	if !ok {
		return
	}
	v, err := c.QuickQuery(max(int64(phi*float64(total)), 1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "quantile: %v", err)
		return
	}
	writeJSON(w, map[string]any{"stream": name, "phi": phi, "value": v, "quick": true, "remote": true})
}

// remoteQuantiles answers GET /streams/{name}/quantiles remotely. Every
// answer is summary-quick; max-reads is meaningless here and ignored.
func (s *server) remoteQuantiles(name string, w http.ResponseWriter, r *http.Request) {
	var phis []float64
	for _, part := range strings.Split(r.URL.Query().Get("phi"), ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		phi, err := strconv.ParseFloat(part, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad phi %q: %v", part, err)
			return
		}
		phis = append(phis, phi)
	}
	if len(phis) == 0 {
		httpError(w, http.StatusBadRequest, "no phi values")
		return
	}
	c, total, ok := s.remoteSummary(w, r, name)
	if !ok {
		return
	}
	vals := make([]int64, len(phis))
	for i, phi := range phis {
		v, err := c.QuickQuery(max(int64(phi*float64(total)), 1))
		if err != nil {
			httpError(w, http.StatusBadRequest, "quantiles: %v", err)
			return
		}
		vals[i] = v
	}
	writeJSON(w, map[string]any{"stream": name, "phi": phis, "values": vals, "quick": true, "remote": true})
}

// remoteRank answers GET /streams/{name}/rank remotely with the combined
// summary's rank estimate: the midpoint of the rank bounds of the largest
// summary value ≤ v, which is within the summary's ε band of the true rank.
func (s *server) remoteRank(name string, w http.ResponseWriter, r *http.Request) {
	v, err := strconv.ParseInt(r.URL.Query().Get("v"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad v: %v", err)
		return
	}
	c, total, ok := s.remoteSummary(w, r, name)
	if !ok {
		return
	}
	writeJSON(w, map[string]any{"stream": name, "v": v, "rank": c.QuickRank(v), "total": total, "quick": true, "remote": true})
}

// restSession is the synthetic wire session carrying this node's forwarded
// REST writes. One session per node keeps the target's dedup marks small;
// the per-(session, stream) sequence marks give forwarded REST writes the
// same exactly-once application as wire clients.
func (s *server) restSession() string { return "rest:" + s.cl.Self().ID }

// forwardFrame allocates the next forwarding sequence number, hands the
// frame to the cluster transport, and blocks until the owning shard (and
// its followers, transitively) acknowledged it. Sequence allocation and
// enqueue happen under one lock so the relay's queue order matches
// sequence order — the target prunes replays by per-stream high-water
// mark, so out-of-order enqueue would make later frames look like dups.
func (s *server) forwardFrame(ctx context.Context, stream string, f *wire.Frame) error {
	s.fwdMu.Lock()
	s.fwdSeq++
	f.Seq = s.fwdSeq
	err := s.cl.Relay(s.restSession(), stream, f, false)
	s.fwdMu.Unlock()
	if err != nil {
		return err
	}
	return s.cl.WaitRelayed(ctx, s.restSession(), f.Seq)
}

// parseObserveValues buffers an observe body (either format — see
// handleObserve) into one slice: the forwarding path sends a single Batch
// frame, it cannot apply line by line like the local handler. Error
// messages match the local handler's so clients see one surface.
func parseObserveValues(r *http.Request) ([]int64, string) {
	br := bufio.NewReader(r.Body)
	if first, err := peekNonSpace(br); err == nil && first == '{' {
		var body struct {
			Value  *int64  `json:"value"`
			Values []int64 `json:"values"`
		}
		dec := json.NewDecoder(br)
		if err := dec.Decode(&body); err != nil {
			return nil, fmt.Sprintf("bad JSON body: %v", err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return nil, "trailing content after JSON body"
		}
		if body.Value == nil && body.Values == nil {
			return nil, `JSON body must carry "value" or "values"`
		}
		var vals []int64
		if body.Value != nil {
			vals = append(vals, *body.Value)
		}
		return append(vals, body.Values...), ""
	}
	sc := bufio.NewScanner(br)
	var vals []int64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return nil, fmt.Sprintf("bad element %q: %v", line, err)
		}
		vals = append(vals, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Sprintf("read body: %v", err)
	}
	return vals, ""
}

// clusterObserve handles POST /streams/{name}/observe in cluster mode.
// When this node stores the stream the batch is applied locally and then
// fanned to the stream's other members — the same replication path wire
// ingest takes. When it does not, the batch is routed to the owning shard.
// Either way the 200 is ack-gated like a wire client's: every reachable
// member applied (or the transport declared the straggler down).
func (s *server) clusterObserve(name string, w http.ResponseWriter, r *http.Request) {
	vals, errMsg := parseObserveValues(r)
	if errMsg != "" {
		httpError(w, http.StatusBadRequest, "%s", errMsg)
		return
	}
	if !s.cl.Member(name) {
		if len(vals) > 0 {
			if err := s.forwardFrame(r.Context(), name, &wire.Frame{Type: wire.TypeBatch, Values: vals}); err != nil {
				httpError(w, http.StatusBadGateway, "forward observe %q: %v", name, err)
				return
			}
		}
		writeJSON(w, map[string]any{"stream": name, "observed": len(vals), "forwarded": true})
		return
	}
	st, err := s.db.Stream(name)
	if err != nil {
		httpError(w, http.StatusBadRequest, "stream %q: %v", name, err)
		return
	}
	if len(vals) > 0 {
		if err := st.ObserveSliceCtx(r.Context(), vals); err != nil {
			httpError(w, http.StatusBadRequest, "observe: %v", err)
			return
		}
		if err := s.forwardFrame(r.Context(), name, &wire.Frame{Type: wire.TypeBatch, Values: vals}); err != nil {
			httpError(w, http.StatusBadGateway, "replicate observe %q: %v", name, err)
			return
		}
	}
	writeJSON(w, map[string]any{"stream": name, "observed": len(vals), "stream_count": st.StreamCount()})
}

// clusterEndStep handles POST /streams/{name}/endstep in cluster mode:
// local end-step + checkpoint and a fanned EndStep frame for member
// streams, a routed EndStep frame otherwise.
func (s *server) clusterEndStep(name string, w http.ResponseWriter, r *http.Request) {
	if !s.cl.Member(name) {
		if err := s.forwardFrame(r.Context(), name, &wire.Frame{Type: wire.TypeEndStep}); err != nil {
			httpError(w, http.StatusBadGateway, "forward endstep %q: %v", name, err)
			return
		}
		writeJSON(w, map[string]any{"stream": name, "forwarded": true})
		return
	}
	st, err := s.db.Stream(name)
	if err != nil {
		httpError(w, http.StatusBadRequest, "stream %q: %v", name, err)
		return
	}
	us, err := st.EndStepCtx(r.Context())
	if err != nil {
		httpError(w, http.StatusInternalServerError, "end step: %v", err)
		return
	}
	s.ing.NotifyEndStep(st.Name())
	if err := st.Checkpoint(); err != nil {
		httpError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	if err := s.forwardFrame(r.Context(), name, &wire.Frame{Type: wire.TypeEndStep}); err != nil {
		httpError(w, http.StatusBadGateway, "replicate endstep %q: %v", name, err)
		return
	}
	writeJSON(w, map[string]any{
		"stream":   name,
		"batch":    us.BatchSize,
		"total_ms": us.TotalTime().Milliseconds(),
		"io":       us.TotalIO(),
		"merges":   us.Merges,
		"steps":    st.Steps(),
	})
}
