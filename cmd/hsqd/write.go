package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/ingest"
	"repro/internal/wire"
)

// This file is hsqd's write side: one body parser and one handler per
// operation, on a single node and on any node of a cluster. A REST write is
// a wire frame handed to ingest.Server.Write — the door a client
// connection's frames come through, minus the replay check — so it is
// applied, tallied, pushed to subscribers, replicated and routed exactly as
// a wire write is.

// maxObserveBody bounds one REST observe body: about 8.4 M newline-separated
// values, or ~64 MB decoded. A larger batch is split across requests (or
// sent over the wire protocol).
const maxObserveBody = 16 << 20

// parseValues reads an observe body into one slice. A body that starts with
// '{' is a JSON object carrying "values":[...] and/or "value":v — so HTTP
// producers can batch without speaking the binary protocol — anything else
// is newline-separated integers. The parse is all-or-nothing: a bad element
// anywhere means no value of the body is applied.
func parseValues(body io.Reader) ([]int64, error) {
	br := bufio.NewReader(body)
	if first, err := peekNonSpace(br); err == nil && first == '{' {
		var doc struct {
			Value  *int64  `json:"value"`
			Values []int64 `json:"values"`
		}
		dec := json.NewDecoder(br)
		if err := dec.Decode(&doc); err != nil {
			return nil, fmt.Errorf("bad JSON body: %w", err)
		}
		// Trailing content after the object means a malformed (e.g.
		// concatenated) body; dropping it silently would lose data.
		if _, err := dec.Token(); err != io.EOF {
			return nil, errors.New("trailing content after JSON body")
		}
		if doc.Value == nil && doc.Values == nil {
			return nil, errors.New(`JSON body must carry "value" or "values"`)
		}
		if doc.Value != nil {
			return append([]int64{*doc.Value}, doc.Values...), nil
		}
		return doc.Values, nil
	}
	var vals []int64
	sc := bufio.NewScanner(br)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad element %q: %v", line, err)
		}
		vals = append(vals, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	return vals, nil
}

// peekNonSpace returns the first non-whitespace byte without consuming it
// (leading whitespace is consumed; it is insignificant in both body
// formats).
func peekNonSpace(br *bufio.Reader) (byte, error) {
	for {
		buf, err := br.Peek(1)
		if err != nil {
			return 0, err
		}
		switch buf[0] {
		case ' ', '\t', '\r', '\n':
			br.Discard(1) //nolint:errcheck
		default:
			return buf[0], nil
		}
	}
}

// writeFailed reports a failed ingest.Server.Write: 502 when the cluster
// transport could not route or replicate the frame, 400 when the stream
// could not be opened here (a bad name), engineCode when the engine refused
// the frame itself.
func writeFailed(w http.ResponseWriter, err error, engineCode int) {
	switch {
	case errors.Is(err, ingest.ErrRelay):
		engineCode = http.StatusBadGateway
	case errors.Is(err, ingest.ErrOpenStream):
		engineCode = http.StatusBadRequest
	}
	httpError(w, engineCode, "%v", err)
}

// handleObserve appends the body's values to the stream's current step.
// The reply carries "stream_count" when this node applied them and
// "forwarded": true when it routed them to the owning shard; either way the
// 200 is ack-gated like a wire client's — every reachable member applied
// (or the transport declared the straggler down). A body over
// maxObserveBody is refused with 413, and none of it is applied.
func (s *server) handleObserve(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	vals, err := parseValues(http.MaxBytesReader(w, r.Body, maxObserveBody))
	if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "observe body exceeds %d bytes", maxObserveBody)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, _, err := s.ing.Write(r.Context(), name, &wire.Frame{Type: wire.TypeBatch, Values: vals})
	if err != nil {
		writeFailed(w, err, http.StatusBadRequest)
		return
	}
	reply := map[string]any{"stream": name, "observed": len(vals)}
	if st != nil {
		reply["stream_count"] = st.StreamCount()
	} else {
		reply["forwarded"] = true
	}
	writeJSON(w, reply)
}

// handleEndStep closes the stream's current step. A nil EndStep is already
// durable (README "Durability"), so the reply needs no further commit.
func (s *server) handleEndStep(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, us, err := s.ing.Write(r.Context(), name, &wire.Frame{Type: wire.TypeEndStep})
	if err != nil {
		writeFailed(w, err, http.StatusInternalServerError)
		return
	}
	if st == nil {
		writeJSON(w, map[string]any{"stream": name, "forwarded": true})
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
