package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/wire"
)

// The golden files pin the exact JSON wire format of the read-side REST
// surface and the exact text of error bodies, so a handler refactor cannot
// silently change what clients parse. Regenerate intentionally with:
//
//	go test ./cmd/hsqd -run TestGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden files instead of comparing")

// goldenServer builds a server with a fixed, fully deterministic state: the
// mem backend (no directory, no platform-dependent I/O), two streams with
// known data, one completed step each. Nothing here may depend on timing.
func goldenServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := newServer(serverConfig{backend: "mem", epsilon: 0.05, kappa: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	var lat, size strings.Builder
	for i := 1; i <= 500; i++ {
		fmt.Fprintf(&lat, "%d\n", i)
		fmt.Fprintf(&size, "%d\n", 100000+i)
	}
	postBody(t, ts.URL+"/streams/api.latency/observe", lat.String())
	postBody(t, ts.URL+"/streams/api.size/observe", size.String())
	postBody(t, ts.URL+"/streams/api.latency/endstep", "")
	postBody(t, ts.URL+"/streams/api.size/endstep", "")
	return ts
}

// checkGolden compares got against testdata/<name>.golden, or rewrites the
// file under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire format drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// canonicalJSON re-encodes a JSON body with sorted keys and stable
// indentation, so the golden comparison is about content, not encoder
// incidentals.
func canonicalJSON(t *testing.T, body []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestGoldenStreams pins GET /streams: the stream directory with per-stream
// counters plus the shared-device aggregate.
func TestGoldenStreams(t *testing.T) {
	ts := goldenServer(t)
	code, body := get(t, ts.URL+"/streams")
	if code != http.StatusOK {
		t.Fatalf("GET /streams: status %d", code)
	}
	checkGolden(t, "streams", canonicalJSON(t, body))
}

// TestGoldenStreamStats pins GET /streams/{name}/stats, the widest response
// shape on the surface (levels, windows, memory and I/O counters).
func TestGoldenStreamStats(t *testing.T) {
	ts := goldenServer(t)
	code, body := get(t, ts.URL+"/streams/api.latency/stats")
	if code != http.StatusOK {
		t.Fatalf("GET stats: status %d", code)
	}
	checkGolden(t, "stream_stats", canonicalJSON(t, body))
}

// TestGoldenQueryShapes pins the query response envelopes (quantile,
// quantiles, rank) on exact, deterministic data.
func TestGoldenQueryShapes(t *testing.T) {
	ts := goldenServer(t)
	var out bytes.Buffer
	for _, url := range []string{
		"/streams/api.latency/quantile?phi=0.5",
		"/streams/api.latency/quantile?phi=0.5&quick=1",
		"/streams/api.latency/quantile?phi=0.5&window=1",
		"/streams/api.latency/quantiles?phi=0.25,0.75&max-reads=100",
		"/streams/api.latency/rank?v=250",
	} {
		code, body := get(t, ts.URL+url)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, code)
		}
		fmt.Fprintf(&out, "### GET %s\n%s", url, canonicalJSON(t, body))
	}
	checkGolden(t, "queries", out.Bytes())
}

// TestGoldenQueryPlan pins POST /query: the composable-plan envelope
// (merge, glob + group-by, window, as-of) and its plan-error bodies.
func TestGoldenQueryPlan(t *testing.T) {
	ts := goldenServer(t)
	var out bytes.Buffer
	post := func(plan string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(plan))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "### POST /query %s\nstatus %d\n", plan, resp.StatusCode)
		if resp.StatusCode == http.StatusOK {
			out.Write(canonicalJSON(t, body))
		} else {
			out.Write(body)
		}
	}
	post(`{"streams":["api.latency","api.size"],"phis":[0.5,0.99]}`)
	post(`{"match":"api.*","group_by":2,"phis":[0.5]}`)
	post(`{"streams":["api.latency"],"window":{"steps":1},"phis":[0.5]}`)
	post(`{"streams":["api.latency"],"as_of_step":1,"phis":[0.5]}`)
	post(`{"phis":[0.5]}`)
	post(`{"streams":["api.latency"],"phis":[1.5]}`)
	post(`{"streams":["nope"],"phis":[0.5]}`)
	post(`{"match":"api.[","phis":[0.5]}`)
	checkGolden(t, "query_plan", out.Bytes())
}

// TestGoldenErrors pins the error bodies: status codes and exact text.
func TestGoldenErrors(t *testing.T) {
	ts := goldenServer(t)
	var out bytes.Buffer
	record := func(method, url, body string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "### %s %s\nstatus %d\n%s", method, url, resp.StatusCode, b)
	}
	record(http.MethodGet, "/streams/api.latency/quantile?phi=abc", "")
	record(http.MethodGet, "/streams/api.latency/quantile?phi=0.5&window=99", "")
	record(http.MethodGet, "/streams/api.latency/quantiles?phi=", "")
	record(http.MethodGet, "/streams/api.latency/quantiles?phi=0.5&max-reads=-1", "")
	record(http.MethodGet, "/streams/api.latency/rank?v=abc", "")
	record(http.MethodGet, "/streams/nope/quantile?phi=0.5", "")
	record(http.MethodGet, "/streams/nope/stats", "")
	record(http.MethodDelete, "/streams/nope", "")
	record(http.MethodPost, "/streams/api.latency/observe", "notanumber\n")
	record(http.MethodPost, "/streams/bad/name/observe", "1\n")
	checkGolden(t, "errors", out.Bytes())
}

// goldenMaintServer builds a deterministic server in manual maintenance
// mode: every endstep seals without installing, so the maintenance surface
// shows a reproducible backlog (no timing, no worker pool).
func goldenMaintServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := newServer(serverConfig{backend: "mem", epsilon: 0.05, kappa: 3, maintenance: "manual"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	var lat strings.Builder
	for i := 1; i <= 500; i++ {
		fmt.Fprintf(&lat, "%d\n", i)
	}
	postBody(t, ts.URL+"/streams/api.latency/observe", lat.String())
	postBody(t, ts.URL+"/streams/api.latency/endstep", "")
	return ts
}

// TestGoldenMaintenance pins GET /streams/{name}/maintenance in both the
// synchronous default (empty backlog) and manual mode (one sealed step
// pending), plus the scheduler block of GET /streams with a backlog.
func TestGoldenMaintenance(t *testing.T) {
	var out bytes.Buffer
	ts := goldenServer(t)
	code, body := get(t, ts.URL+"/streams/api.latency/maintenance")
	if code != http.StatusOK {
		t.Fatalf("GET maintenance (sync): status %d", code)
	}
	// install_ms is wall-clock, and in sync mode the step's install has run:
	// a slow machine rounds it up to 1.
	fmt.Fprintf(&out, "### sync\n%s", installMsPattern.ReplaceAll(canonicalJSON(t, body), []byte(`"install_ms": "<ms>"`)))

	tm := goldenMaintServer(t)
	code, body = get(t, tm.URL+"/streams/api.latency/maintenance")
	if code != http.StatusOK {
		t.Fatalf("GET maintenance (manual): status %d", code)
	}
	fmt.Fprintf(&out, "### manual, one sealed step\n%s", canonicalJSON(t, body))

	code, body = get(t, tm.URL+"/streams")
	if code != http.StatusOK {
		t.Fatalf("GET /streams (manual): status %d", code)
	}
	fmt.Fprintf(&out, "### manual /streams scheduler block\n%s", canonicalJSON(t, body))
	checkGolden(t, "maintenance", out.Bytes())
}

var installMsPattern = regexp.MustCompile(`"install_ms": \d+`)

// goldenIngest drives a fully deterministic raw-wire session against the
// server's ingest pipeline: fixed session token, fixed frames, fixed
// values. Only the connection's remote port is nondeterministic; the
// golden canonicalization below redacts it.
func goldenIngest(t *testing.T, srv *server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck
	served := make(chan struct{})
	go func() {
		defer close(served)
		nc, err := l.Accept()
		if err != nil {
			return
		}
		srv.ing.ServeConn(nc)
	}()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		nc.Close() //nolint:errcheck
		<-served
	})
	w, r := wire.NewWriter(nc), wire.NewReader(nc)
	send := func(f *wire.Frame) {
		t.Helper()
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	send(&wire.Frame{Type: wire.TypeHello, Version: wire.Version, Session: "golden-session"})
	if f, err := r.ReadFrame(); err != nil || f.Type != wire.TypeWelcome {
		t.Fatalf("welcome: %v %v", f, err)
	}
	vals := make([]int64, 250)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "wire.stream"})
	send(&wire.Frame{Type: wire.TypeBatch, Seq: 1, StreamID: 1, Values: vals})
	send(&wire.Frame{Type: wire.TypeBatch, Seq: 2, StreamID: 1, Values: vals})
	send(&wire.Frame{Type: wire.TypeEndStep, Seq: 3, StreamID: 1})
	send(&wire.Frame{Type: wire.TypePing, Seq: 1})
	// The Pong confirms everything up to seq 3 is applied; it must arrive
	// before the snapshot.
	if f, err := r.ReadFrame(); err != nil || f.Type != wire.TypePong || f.Seq != 1 {
		t.Fatalf("pong: %v %v", f, err)
	}
}

// redactRemote hides the one nondeterministic field of the ingest
// snapshot (the client's ephemeral port).
var remotePattern = regexp.MustCompile(`"remote": "[^"]*"`)

func redactRemote(body []byte) []byte {
	return remotePattern.ReplaceAll(body, []byte(`"remote": "127.0.0.1:<port>"`))
}

// TestGoldenIngest pins GET /ingest (live connection with counters, then
// the post-disconnect state) and the ingest enrichment of GET /streams.
func TestGoldenIngest(t *testing.T) {
	srv, err := newServer(serverConfig{backend: "mem", epsilon: 0.05, kappa: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	var out bytes.Buffer
	code, body := get(t, ts.URL+"/ingest")
	if code != http.StatusOK {
		t.Fatalf("GET /ingest (idle): status %d", code)
	}
	fmt.Fprintf(&out, "### idle\n%s", canonicalJSON(t, body))

	goldenIngest(t, srv)
	code, body = get(t, ts.URL+"/ingest")
	if code != http.StatusOK {
		t.Fatalf("GET /ingest (live): status %d", code)
	}
	fmt.Fprintf(&out, "### one live connection, 500 values applied\n%s",
		redactRemote(canonicalJSON(t, body)))

	code, body = get(t, ts.URL+"/streams")
	if code != http.StatusOK {
		t.Fatalf("GET /streams (wire-fed): status %d", code)
	}
	fmt.Fprintf(&out, "### /streams after wire ingest\n%s", canonicalJSON(t, body))
	checkGolden(t, "ingest", out.Bytes())
}
