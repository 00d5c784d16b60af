package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"sync/atomic"
	"testing"

	"repro"
	"repro/hsqclient"
	"repro/internal/disk"
	"repro/internal/ingest"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := newServer(serverConfig{dir: t.TempDir(), epsilon: 0.05, kappa: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts
}

func postBody(t *testing.T, url, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getJSON(t *testing.T, url string) (map[string]any, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

func TestServerEndToEnd(t *testing.T) {
	ts := newTestServer(t)

	// Observe 1..1000 in two chunks.
	var b strings.Builder
	for i := 1; i <= 500; i++ {
		fmt.Fprintf(&b, "%d\n", i)
	}
	out := postBody(t, ts.URL+"/streams/default/observe", b.String())
	if out["observed"].(float64) != 500 {
		t.Errorf("observed = %v", out["observed"])
	}
	b.Reset()
	for i := 501; i <= 1000; i++ {
		fmt.Fprintf(&b, "%d\n", i)
	}
	postBody(t, ts.URL+"/streams/default/observe", b.String())

	// End the step: data moves to the warehouse and is checkpointed.
	out = postBody(t, ts.URL+"/streams/default/endstep", "")
	if out["batch"].(float64) != 1000 || out["steps"].(float64) != 1 {
		t.Errorf("endstep = %v", out)
	}

	// Accurate quantile: stream empty → exact median is 500.
	q, code := getJSON(t, ts.URL+"/streams/default/quantile?phi=0.5")
	if code != 200 || q["value"].(float64) != 500 {
		t.Errorf("quantile = %v (code %d)", q, code)
	}
	// Quick quantile responds 200 with a plausible value.
	q, code = getJSON(t, ts.URL+"/streams/default/quantile?phi=0.5&quick=1")
	if code != 200 {
		t.Errorf("quick code %d", code)
	}
	if v := q["value"].(float64); v < 300 || v > 700 {
		t.Errorf("quick value %v far from median", v)
	}
	// Windowed query over the only available window.
	q, code = getJSON(t, ts.URL+"/streams/default/quantile?phi=0.5&window=1")
	if code != 200 || q["value"].(float64) != 500 {
		t.Errorf("window quantile = %v (code %d)", q, code)
	}

	// Stats endpoint.
	st, code := getJSON(t, ts.URL+"/streams/default/stats")
	if code != 200 {
		t.Fatalf("stats code %d", code)
	}
	if st["hist_count"].(float64) != 1000 || st["partitions"].(float64) != 1 {
		t.Errorf("stats = %v", st)
	}
}

// TestStreamsPollLeavesLRU holds GET /streams to a read that is not a use:
// with a budget of two hydrated streams, b written before a, a poll in
// between must leave b the least recently used, so writing c evicts b.
func TestStreamsPollLeavesLRU(t *testing.T) {
	srv, err := newServer(serverConfig{backend: "mem", epsilon: 0.05, kappa: 3, maxHydrated: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	write := func(name string) {
		postBody(t, ts.URL+"/streams/"+name+"/observe", "1\n2\n3\n")
		postBody(t, ts.URL+"/streams/"+name+"/endstep", "")
	}
	write("b")
	write("a")
	out, code := getJSON(t, ts.URL+"/streams")
	if code != http.StatusOK {
		t.Fatalf("GET /streams: status %d", code)
	}
	for _, row := range out["streams"].([]any) {
		if r := row.(map[string]any); r["hydrated"] != true || r["hist_count"] != 3.0 {
			t.Fatalf("GET /streams row %v, want hydrated with hist_count 3", r)
		}
	}
	write("c")
	for name, want := range map[string]bool{"a": true, "b": false, "c": true} {
		if st, _ := srv.db.Lookup(name); st.Hydrated() != want {
			t.Errorf("after writing c: %s hydrated = %v, want %v (the poll reordered eviction)", name, !want, want)
		}
	}
}

// TestStreamStatsLeavesLRU: GET /streams/{name}/stats on a cold stream
// answers from the directory entry — no hydration, no eviction of the hot
// stream — and a hot stream's counts come from one read.
func TestStreamStatsLeavesLRU(t *testing.T) {
	srv, err := newServer(serverConfig{backend: "mem", epsilon: 0.05, kappa: 3, maxHydrated: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	for _, name := range []string{"a", "b"} {
		postBody(t, ts.URL+"/streams/"+name+"/observe", "1\n2\n3\n")
		postBody(t, ts.URL+"/streams/"+name+"/endstep", "")
	}
	postBody(t, ts.URL+"/streams/b/observe", "4\n")
	before := srv.db.DirectoryStats().Hydrations
	cold, code := getJSON(t, ts.URL+"/streams/a/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /streams/a/stats: status %d", code)
	}
	if cold["hydrated"] != false || cold["io_seq_writes"] == nil || cold["stream_count"] != nil {
		t.Errorf("cold stats %v, want hydrated false with I/O counters and no engine counts", cold)
	}
	if got := srv.db.DirectoryStats().Hydrations; got != before {
		t.Errorf("GET /streams/a/stats: hydrations %d -> %d, want none", before, got)
	}
	for name, want := range map[string]bool{"a": false, "b": true} {
		if st, _ := srv.db.Lookup(name); st.Hydrated() != want {
			t.Errorf("after the stats read: %s hydrated = %v, want %v", name, !want, want)
		}
	}
	hot, code := getJSON(t, ts.URL+"/streams/b/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /streams/b/stats: status %d", code)
	}
	if hot["hydrated"] != true || hot["stream_count"] != 1.0 || hot["hist_count"] != 3.0 || hot["total_count"] != 4.0 {
		t.Errorf("hot stats %v, want hydrated with m=1, n=3, N=4", hot)
	}
}

// failingReads is a backend whose partition reads fail while armed: the
// reads of a merge's inputs, before any query has read a partition.
type failingReads struct {
	disk.Backend
	armed atomic.Bool
}

func (b *failingReads) Open(name string) (disk.ReadHandle, error) {
	if b.armed.Load() && strings.HasPrefix(path.Base(name), "part-") {
		return nil, errors.New("injected read fault")
	}
	return b.Backend.Open(name)
}

// TestMaintainNow: POST /streams/{name}/maintenance is the retry of a failed
// merge. The endstep whose merge fails reports it, GET stats shows the merge
// still due with the failure, and the POST runs it inline and replies with
// the stats; the GET that follows agrees.
func TestMaintainNow(t *testing.T) {
	dev := &failingReads{Backend: disk.NewMemBackend()}
	db, err := hsq.Open(hsq.Options{Epsilon: 0.05, Kappa: 3, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	srv := &server{db: db, ing: ingest.New(ingest.Config{DB: db})}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(func() {
		ts.Close()
		db.Close() //nolint:errcheck
	})
	url, stats := ts.URL+"/streams/m/maintenance", ts.URL+"/streams/m/stats"
	for step := 1; step <= 4; step++ { // κ=3: the 4th step's partition makes a merge due
		postBody(t, ts.URL+"/streams/m/observe", "1\n2\n3\n")
		dev.armed.Store(step == 4)
		resp, err := http.Post(ts.URL+"/streams/m/endstep", "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if failed := resp.StatusCode != http.StatusOK; failed != (step == 4) {
			t.Fatalf("endstep %d: status %d", step, resp.StatusCode)
		}
	}
	dev.armed.Store(false)
	got, _ := getJSON(t, stats)
	if got["pending_steps"] != 1.0 || got["installs"] != 4.0 || got["merges"] != 0.0 || !strings.Contains(fmt.Sprint(got["last_error"]), "injected read fault") {
		t.Fatalf("after the failed merge: %v, want pending_steps 1, installs 4, merges 0 and the fault", got)
	}
	if got := postBody(t, url, ""); got["stream"] != "m" || got["pending_steps"] != 0.0 || got["merges"] != 1.0 {
		t.Errorf("POST maintenance: %v, want pending_steps 0, merges 1", got)
	}
	if got, _ := getJSON(t, stats); got["pending_steps"] != 0.0 || got["merges"] != 1.0 || got["last_error"] != "" {
		t.Errorf("GET after the retry: %v, want pending_steps 0, merges 1, no error", got)
	}
}

// TestMaintenanceFlagRejectsRemovedModes: -maintenance accepts only sync
// (and empty); async and manual fail startup with the removal.
func TestMaintenanceFlagRejectsRemovedModes(t *testing.T) {
	for _, mode := range []string{"async", "manual"} {
		_, err := newServer(serverConfig{backend: "mem", epsilon: 0.05, kappa: 3, maintenance: mode})
		if err == nil || !strings.Contains(err.Error(), "async and manual maintenance were removed, every EndStep runs its own merges") {
			t.Errorf("-maintenance %s: err = %v, want the removal", mode, err)
		}
	}
	srv, err := newServer(serverConfig{backend: "mem", epsilon: 0.05, kappa: 3, maintenance: "sync"})
	if err != nil {
		t.Fatalf("-maintenance sync: %v", err)
	}
	srv.db.Close() //nolint:errcheck
}

func TestServerErrors(t *testing.T) {
	ts := newTestServer(t)
	// Bad element.
	resp, err := http.Post(ts.URL+"/streams/default/observe", "text/plain", strings.NewReader("notanumber\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad element: status %d", resp.StatusCode)
	}
	// An empty step opens the stream (reads of an unknown stream are 404s).
	postBody(t, ts.URL+"/streams/default/endstep", "")
	// Bad phi.
	if _, code := getJSON(t, ts.URL+"/streams/default/quantile?phi=abc"); code != http.StatusBadRequest {
		t.Errorf("bad phi: status %d", code)
	}
	// Query with no data.
	if _, code := getJSON(t, ts.URL+"/streams/default/quantile?phi=0.5"); code != http.StatusBadRequest {
		t.Errorf("empty query: status %d", code)
	}
	// Bad window.
	postBody(t, ts.URL+"/streams/default/observe", "1\n2\n3\n")
	postBody(t, ts.URL+"/streams/default/endstep", "")
	if _, code := getJSON(t, ts.URL+"/streams/default/quantile?phi=0.5&window=99"); code != http.StatusBadRequest {
		t.Errorf("misaligned window: status %d", code)
	}
	if _, code := getJSON(t, ts.URL+"/streams/default/quantile?phi=0.5&window=x"); code != http.StatusBadRequest {
		t.Errorf("non-numeric window: status %d", code)
	}
	// One parser behind the three read routes: each of them refuses a bad
	// value of any common parameter instead of dropping it.
	for _, path := range []string{
		"/quantile?phi=0.5&window=0", "/quantile?phi=0.5&max-reads=-1", "/quantile?phi=0.5&max-reads=x",
		"/quantiles?phi=0.5&window=99", "/quantiles?phi=0.5&window=x", "/quantiles?phi=0.5,7",
		"/rank?v=2&window=99", "/rank?v=2&max-reads=-1",
	} {
		if _, code := getJSON(t, ts.URL+"/streams/default"+path); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, code)
		}
	}
}

// TestObserveLimits pins the two bounds of a REST observe: a stream name
// over one path component is a 400, and a body one byte over maxObserveBody
// is a 413 that applies none of its values; a body at the limit is taken.
func TestObserveLimits(t *testing.T) {
	ts := newTestServer(t)
	post := func(url, body string) int {
		t.Helper()
		resp, err := http.Post(url, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(ts.URL+"/streams/"+strings.Repeat("n", 256)+"/observe", "1\n"); code != http.StatusBadRequest {
		t.Errorf("256-byte stream name: status %d, want 400", code)
	}
	S := ts.URL + "/streams/lat"
	postBody(t, S+"/observe", "1\n2\n")
	// Two values padded with blank lines to exactly the limit, then one
	// byte more.
	atLimit := "5\n" + strings.Repeat("\n", maxObserveBody-3) + "6"
	if code := post(S+"/observe", atLimit+"\n"); code != http.StatusRequestEntityTooLarge {
		t.Errorf("body one byte over the limit: status %d, want 413", code)
	}
	if st, _ := getJSON(t, S+"/stats"); st["stream_count"] != float64(2) {
		t.Errorf("stream_count = %v after a refused body, want 2", st["stream_count"])
	}
	if got := postBody(t, S+"/observe", atLimit); got["stream_count"] != float64(4) {
		t.Errorf("body at the limit: stream_count = %v, want 4", got["stream_count"])
	}
}

func TestServerResume(t *testing.T) {
	dir := t.TempDir()
	srv, err := newServer(serverConfig{dir: dir, epsilon: 0.05, kappa: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	postBody(t, ts.URL+"/streams/default/observe", "1\n2\n3\n4\n5\n")
	postBody(t, ts.URL+"/streams/default/endstep", "")
	ts.Close()

	// Resume is automatic: a fresh server on the same dir reopens the DB
	// manifest and with it the "default" stream.
	srv2, err := newServer(serverConfig{dir: dir, epsilon: 0.05, kappa: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.mux())
	defer ts2.Close()
	q, code := getJSON(t, ts2.URL+"/streams/default/quantile?phi=0.5")
	if code != 200 || q["value"].(float64) != 3 {
		t.Errorf("resumed quantile = %v (code %d)", q, code)
	}
}

// TestServerMultiStream drives two named streams end-to-end over HTTP —
// independent data, per-stream queries and stats, a restart that resumes
// both streams, and a DELETE — the tentpole's REST surface.
func TestServerMultiStream(t *testing.T) {
	dir := t.TempDir()
	srv, err := newServer(serverConfig{dir: dir, epsilon: 0.05, kappa: 3, cacheBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())

	// Two streams with disjoint value ranges.
	var lat, size strings.Builder
	for i := 1; i <= 500; i++ {
		fmt.Fprintf(&lat, "%d\n", i)
		fmt.Fprintf(&size, "%d\n", 100000+i)
	}
	out := postBody(t, ts.URL+"/streams/api.latency/observe", lat.String())
	if out["stream"].(string) != "api.latency" || out["observed"].(float64) != 500 {
		t.Errorf("observe = %v", out)
	}
	postBody(t, ts.URL+"/streams/api.size/observe", size.String())
	postBody(t, ts.URL+"/streams/api.latency/endstep", "")
	postBody(t, ts.URL+"/streams/api.size/endstep", "")

	// Per-stream quantiles see only their own data.
	q, code := getJSON(t, ts.URL+"/streams/api.latency/quantile?phi=0.5")
	if code != 200 || q["value"].(float64) != 250 {
		t.Errorf("latency median = %v (code %d)", q, code)
	}
	q, code = getJSON(t, ts.URL+"/streams/api.size/quantile?phi=0.5")
	if code != 200 || q["value"].(float64) != 100250 {
		t.Errorf("size median = %v (code %d)", q, code)
	}
	// Batched quantiles with an I/O budget.
	q, code = getJSON(t, ts.URL+"/streams/api.latency/quantiles?phi=0.25,0.75&max-reads=1000")
	if code != 200 {
		t.Fatalf("quantiles code %d", code)
	}
	if vals := q["values"].([]any); len(vals) != 2 || vals[0].(float64) != 125 {
		t.Errorf("latency quantiles = %v", vals)
	}
	// Unknown stream → 404 on queries; listing shows both streams.
	if _, code := getJSON(t, ts.URL+"/streams/nope/quantile?phi=0.5"); code != 404 {
		t.Errorf("unknown stream: code %d", code)
	}
	ls, code := getJSON(t, ts.URL+"/streams")
	if code != 200 {
		t.Fatalf("streams code %d", code)
	}
	if streams := ls["streams"].([]any); len(streams) != 2 {
		t.Errorf("streams = %v", streams)
	}
	// Per-stream stats carry per-stream I/O.
	st, code := getJSON(t, ts.URL+"/streams/api.latency/stats")
	if code != 200 || st["hist_count"].(float64) != 500 {
		t.Errorf("latency stats = %v (code %d)", st, code)
	}
	ts.Close()

	// Restart: both streams resume from the DB manifest.
	srv2, err := newServer(serverConfig{dir: dir, epsilon: 0.05, kappa: 3, cacheBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.mux())
	defer ts2.Close()
	q, code = getJSON(t, ts2.URL+"/streams/api.size/quantile?phi=0.5")
	if code != 200 || q["value"].(float64) != 100250 {
		t.Errorf("resumed size median = %v (code %d)", q, code)
	}
	q, code = getJSON(t, ts2.URL+"/streams/api.latency/quantile?phi=0.99")
	if code != 200 || q["value"].(float64) != 495 {
		t.Errorf("resumed latency p99 = %v (code %d)", q, code)
	}

	// DELETE drops the stream; it is gone from the listing and queries 404.
	req, err := http.NewRequest(http.MethodDelete, ts2.URL+"/streams/api.size", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("delete code %d", resp.StatusCode)
	}
	if _, code := getJSON(t, ts2.URL+"/streams/api.size/quantile?phi=0.5"); code != 404 {
		t.Errorf("deleted stream query: code %d", code)
	}
	ls, _ = getJSON(t, ts2.URL+"/streams")
	if streams := ls["streams"].([]any); len(streams) != 1 {
		t.Errorf("streams after delete = %v", streams)
	}
}

func TestServerQuantilesAndRank(t *testing.T) {
	ts := newTestServer(t)
	var b strings.Builder
	for i := 1; i <= 1000; i++ {
		fmt.Fprintf(&b, "%d\n", i)
	}
	postBody(t, ts.URL+"/streams/default/observe", b.String())
	postBody(t, ts.URL+"/streams/default/endstep", "")

	q, code := getJSON(t, ts.URL+"/streams/default/quantiles?phi=0.25,0.5,0.75")
	if code != 200 {
		t.Fatalf("quantiles code %d", code)
	}
	vals := q["values"].([]any)
	if len(vals) != 3 || vals[0].(float64) != 250 || vals[1].(float64) != 500 || vals[2].(float64) != 750 {
		t.Errorf("quantiles = %v", vals)
	}
	if _, code := getJSON(t, ts.URL+"/streams/default/quantiles?phi="); code != 400 {
		t.Errorf("empty phis: code %d", code)
	}
	if _, code := getJSON(t, ts.URL+"/streams/default/quantiles?phi=0.5,abc"); code != 400 {
		t.Errorf("bad phi list: code %d", code)
	}

	// quick=1, window= and max-reads= mean the same on every read route.
	// The quick /quantiles goes first: nothing is cached or memoized yet, so
	// zero disk reads is the in-memory path and not a warm repeat.
	q, code = getJSON(t, ts.URL+"/streams/default/quantiles?phi=0.25,0.5,0.75&quick=1")
	if code != 200 || q["disk_reads"].(float64) != 0 {
		t.Errorf("quick quantiles = %v (code %d), want 0 disk reads", q, code)
	}
	for i, v := range q["values"].([]any) {
		if want := 250 * float64(i+1); v.(float64) < want-75 || v.(float64) > want+75 {
			t.Errorf("quick quantiles[%d] = %v, want %v ± 1.5·ε·N", i, v, want)
		}
	}
	postBody(t, ts.URL+"/streams/default/observe", "2000\n")
	postBody(t, ts.URL+"/streams/default/endstep", "")
	q, code = getJSON(t, ts.URL+"/streams/default/quantiles?phi=0.5,1&window=1")
	if vals := q["values"].([]any); code != 200 || vals[0].(float64) != 2000 || vals[1].(float64) != 2000 {
		t.Errorf("windowed quantiles = %v (code %d), want the last step's one value", q, code)
	}
	q, code = getJSON(t, ts.URL+"/streams/default/quantile?phi=0.5&max-reads=1")
	if v := q["value"].(float64); code != 200 || v < 300 || v > 700 {
		t.Errorf("budgeted quantile = %v (code %d), want 501 ± 4·ε·N", q, code)
	}
	rk, code := getJSON(t, ts.URL+"/streams/default/rank?v=5000&window=1")
	if code != 200 || rk["rank"].(float64) != 1 || rk["total"].(float64) != 1 {
		t.Errorf("windowed rank = %v (code %d), want 1 of 1", rk, code)
	}

	rk, code = getJSON(t, ts.URL+"/streams/default/rank?v=500")
	if code != 200 || rk["rank"].(float64) != 500 {
		t.Errorf("rank = %v (code %d)", rk, code)
	}
	rk, code = getJSON(t, ts.URL+"/streams/default/rank?v=500&quick=1")
	if code != 200 {
		t.Fatalf("quick rank code %d", code)
	}
	if r := rk["rank"].(float64); r < 350 || r > 650 {
		t.Errorf("quick rank = %v", r)
	}
	if _, code := getJSON(t, ts.URL+"/streams/default/rank?v=abc"); code != 400 {
		t.Errorf("bad rank value: code %d", code)
	}

	st, code := getJSON(t, ts.URL+"/streams/default/stats")
	if code != 200 || st["levels"] == nil {
		t.Errorf("stats levels missing: %v", st)
	}
}

// TestRankAndTotalFromOneSnapshot polls /rank while a writer observes and
// ends steps. "rank" and "total" describe one snapshot, so they agree on
// every reply: nothing exceeds MaxInt64, so its rank is the whole stream —
// exactly total: partitions and the in-memory steps, held whole, are both
// counted exactly (core.RankOfValues) — never more, and never
// less, which is what a total read after the rank, from a second snapshot
// the writer has already moved, would show.
func TestRankAndTotalFromOneSnapshot(t *testing.T) {
	ts := newTestServer(t)
	url := ts.URL + "/streams/live/"
	postBody(t, url+"observe", "1\n")
	stop := make(chan struct{})
	writer := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				writer <- nil
				return
			default:
			}
			path, body := "observe", strings.Repeat("7\n", 50)
			if i%4 == 3 {
				path, body = "endstep", ""
			}
			resp, err := http.Post(url+path, "text/plain", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
				}
			}
			if err != nil {
				writer <- err
				return
			}
		}
	}()
	for i := 0; i < 300; i++ {
		rk, code := getJSON(t, url+"rank?v=9223372036854775807")
		if code != http.StatusOK {
			t.Fatalf("rank: status %d", code)
		}
		rank, total := rk["rank"].(float64), rk["total"].(float64)
		if rank != total {
			t.Fatalf("poll %d: rank of MaxInt64 = %v against total = %v", i, rank, total)
		}
	}
	close(stop)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
}

// TestObserveJSONBatch pins the batched JSON observe surface: a
// {"values":[...]} body lands through ObserveSlice, a {"value":v} body
// observes one element, and both coexist with the legacy newline format
// on the same route.
func TestObserveJSONBatch(t *testing.T) {
	ts := newTestServer(t)
	url := ts.URL + "/streams/batched/observe"

	out := postBody(t, url, `{"values":[1,2,3,4,5]}`)
	if out["observed"].(float64) != 5 {
		t.Fatalf("batched observed = %v, want 5", out["observed"])
	}
	out = postBody(t, url, `{"value": 6}`)
	if out["observed"].(float64) != 1 {
		t.Fatalf("single observed = %v, want 1", out["observed"])
	}
	out = postBody(t, url, "7\n8\n")
	if out["observed"].(float64) != 2 {
		t.Fatalf("legacy observed = %v, want 2", out["observed"])
	}
	if out["stream_count"].(float64) != 8 {
		t.Fatalf("stream_count = %v, want 8", out["stream_count"])
	}
	// Leading whitespace must not confuse the format sniffing.
	out = postBody(t, url, "  \n\t {\"values\":[9]}")
	if out["observed"].(float64) != 1 {
		t.Fatalf("whitespace-prefixed JSON observed = %v, want 1", out["observed"])
	}

	// Malformed JSON is a 400, not a silent legacy-parse.
	resp, err := http.Post(url, "application/json", strings.NewReader(`{"values":[1,`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	// A JSON body with neither key is a 400 too.
	resp2, err := http.Post(url, "application/json", strings.NewReader(`{"nope": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("keyless JSON: status %d, want 400", resp2.StatusCode)
	}
}

// TestIngestEndpointOverHTTP checks GET /ingest reflects wire traffic:
// data pushed through hsqclient shows up in the aggregate, per-stream and
// per-connection counters, and the enriched GET /streams carries the
// stream's ingest tally.
func TestIngestEndpointOverHTTP(t *testing.T) {
	srv, err := newServer(serverConfig{backend: "mem", epsilon: 0.05, kappa: 3, logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.ingAddr = l.Addr().String()
	go srv.ing.Serve(l)                                          //nolint:errcheck
	t.Cleanup(func() { srv.ing.Shutdown(context.Background()) }) //nolint:errcheck

	c, err := hsqclient.Dial(srv.ingAddr, hsqclient.WithBatchSize(100))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stream("wired")
	for v := int64(1); v <= 300; v++ {
		if err := st.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndStep(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	out, code := getJSON(t, ts.URL+"/ingest")
	if code != http.StatusOK {
		t.Fatalf("GET /ingest: status %d", code)
	}
	if got := out["values"].(float64); got != 300 {
		t.Fatalf("/ingest values = %v, want 300", got)
	}
	if got := out["active_conns"].(float64); got != 1 {
		t.Fatalf("/ingest active_conns = %v, want 1", got)
	}
	streams := out["streams"].(map[string]any)
	ws := streams["wired"].(map[string]any)
	if ws["values"].(float64) != 300 || ws["end_steps"].(float64) != 1 {
		t.Fatalf("/ingest per-stream = %v, want 300 values / 1 end_step", ws)
	}
	conns := out["conns"].([]any)
	if len(conns) != 1 {
		t.Fatalf("/ingest conns = %v, want 1 entry", conns)
	}
	if sess := conns[0].(map[string]any)["session"].(string); sess != c.Session() {
		t.Fatalf("conn session = %q, want %q", sess, c.Session())
	}

	out, code = getJSON(t, ts.URL+"/streams")
	if code != http.StatusOK {
		t.Fatalf("GET /streams: status %d", code)
	}
	for _, s := range out["streams"].([]any) {
		sm := s.(map[string]any)
		if sm["name"] == "wired" {
			if sm["ingest_values"].(float64) != 300 {
				t.Fatalf("/streams ingest_values = %v, want 300", sm["ingest_values"])
			}
		}
	}
	if ing := out["ingest"].(map[string]any); ing["values"].(float64) != 300 {
		t.Fatalf("/streams ingest block = %v, want 300 values", ing)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
