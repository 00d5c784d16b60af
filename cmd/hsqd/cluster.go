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

	"repro/internal/wire"
)

// This file is hsqd's coordinator mode on the write side: the handlers and
// forwarding glue that turn any node of a -cluster-peers deployment into a
// full front door. Writes for streams this node does not store are
// forwarded to the owning shard over the wire protocol. (Reads for such
// streams, and POST /query plans that merge shard summaries across streams
// — the paper's summary-merge query, Section 6, applied across nodes — are
// in query.go.)

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
