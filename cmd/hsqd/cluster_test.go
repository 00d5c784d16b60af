package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/query"
)

// TestGoldenHealthz pins the liveness body: a monitoring fleet parses it,
// so it may never change shape.
func TestGoldenHealthz(t *testing.T) {
	ts := goldenServer(t)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", code)
	}
	checkGolden(t, "healthz", body)
}

// TestGoldenCluster pins GET /cluster in both modes: the single-node
// disabled stub, and a configured 3-node membership with deterministic
// placement counts for the two golden streams (FNV placement is stable by
// construction, so the counts are part of the pinned format).
func TestGoldenCluster(t *testing.T) {
	var out bytes.Buffer

	ts := goldenServer(t)
	code, body := get(t, ts.URL+"/cluster")
	if code != http.StatusOK {
		t.Fatalf("GET /cluster (single-node): status %d", code)
	}
	fmt.Fprintf(&out, "### single node\n%s", canonicalJSON(t, body))

	// Replicas stays 1 so writes to self-owned streams have no followers:
	// nothing ever dials the fake peer addresses and the relay block stays
	// deterministically empty.
	srv, err := newServer(serverConfig{
		backend: "mem", epsilon: 0.05, kappa: 3,
		nodeID:       "a",
		clusterPeers: "a=10.0.0.1:9090,b=10.0.0.2:9090,c=10.0.0.3:9090",
		replicas:     1,
		ringEpoch:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := httptest.NewServer(srv.mux())
	t.Cleanup(tc.Close)
	t.Cleanup(srv.cl.Close)
	// Create two streams locally so the placement counts are non-trivial.
	// Only streams node "a" owns can be created over REST (others would
	// forward to the unreachable fake peers), so probe for two such names.
	created := 0
	for i := 0; created < 2 && i < 10_000; i++ {
		name := fmt.Sprintf("golden-%d", i)
		if !srv.cl.Member(name) {
			continue
		}
		postBody(t, tc.URL+"/streams/"+name+"/observe", "1\n2\n3\n")
		created++
	}
	code, body = get(t, tc.URL+"/cluster")
	if code != http.StatusOK {
		t.Fatalf("GET /cluster (clustered): status %d", code)
	}
	fmt.Fprintf(&out, "### three nodes, replicas 1, two local streams\n%s", canonicalJSON(t, body))
	checkGolden(t, "cluster", out.Bytes())
}

// testNode is one in-process hsqd of a test cluster: the server and its HTTP
// front door. stop tears the node down the way a process exit would (no
// DB.Close); it also runs at test cleanup.
type testNode struct {
	srv  *server
	ts   *httptest.Server
	stop func()
}

// startNode boots one hsqd node of the membership peers with a real ingest
// listener on ln.
func startNode(t *testing.T, id, peers string, replicas int, ln net.Listener) *testNode {
	t.Helper()
	srv, err := newServer(serverConfig{
		backend: "mem", epsilon: 0.02, kappa: 3,
		nodeID: id, clusterPeers: peers, replicas: replicas,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.ingAddr = ln.Addr().String()
	go srv.ing.Serve(ln) //nolint:errcheck
	ts := httptest.NewServer(srv.mux())
	stop := sync.OnceFunc(func() {
		ts.Close()
		ln.Close()                             //nolint:errcheck
		srv.ing.Shutdown(context.Background()) //nolint:errcheck
		srv.cl.Close()
	})
	t.Cleanup(stop)
	return &testNode{srv: srv, ts: ts, stop: stop}
}

// clusterNodes boots an in-process hsqd cluster, one node per id, with real
// ingest listeners, so the HTTP front doors exercise the real forwarding,
// replication and summary-fetch paths between them. It returns the nodes and
// the membership string they share.
func clusterNodes(t *testing.T, replicas int, ids ...string) ([]*testNode, string) {
	t.Helper()
	lns := make([]net.Listener, len(ids))
	entries := make([]string, len(ids))
	for i, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], entries[i] = ln, id+"="+ln.Addr().String()
	}
	peers := strings.Join(entries, ",")
	nodes := make([]*testNode, len(ids))
	for i, id := range ids {
		nodes[i] = startNode(t, id, peers, replicas, lns[i])
	}
	return nodes, peers
}

// clusterTestServers is the 2-node pair most cluster tests need.
func clusterTestServers(t *testing.T, replicas int) (a, b *httptest.Server, srvA, srvB *server) {
	t.Helper()
	n, _ := clusterNodes(t, replicas, "a", "b")
	return n[0].ts, n[1].ts, n[0].srv, n[1].srv
}

// TestClusterHTTPForwarding drives writes and reads for every stream
// through ONE node's HTTP surface and verifies each stream materializes
// only on its owning shard, yet queries answer identically from both
// front doors — the coordinator-mode contract.
func TestClusterHTTPForwarding(t *testing.T) {
	tsA, tsB, srvA, srvB := clusterTestServers(t, 1)

	// Two streams, one owned by each node (probe the deterministic ring).
	streamOn := func(srv *server) string {
		for i := 0; ; i++ {
			name := fmt.Sprintf("fwd-%d", i)
			if srv.cl.Member(name) {
				return name
			}
		}
	}
	local, remote := streamOn(srvA), streamOn(srvB)

	const n = 3000
	for _, name := range []string{local, remote} {
		var body strings.Builder
		for v := 1; v <= n; v++ {
			fmt.Fprintf(&body, "%d\n", v)
		}
		// All writes go through node a — one is local, one forwards to b.
		out := postBody(t, tsA.URL+"/streams/"+name+"/observe", body.String())
		if int(out["observed"].(float64)) != n {
			t.Fatalf("observe %s: %v", name, out)
		}
		postBody(t, tsA.URL+"/streams/"+name+"/endstep", "")
	}
	if _, ok := srvA.db.Lookup(remote); ok {
		t.Fatalf("stream %s materialized on non-member a", remote)
	}
	if _, ok := srvB.db.Lookup(local); ok {
		t.Fatalf("stream %s materialized on non-member b", local)
	}
	if st, ok := srvB.db.Lookup(remote); !ok || st.TotalCount() != n {
		t.Fatalf("forwarded stream on owner: ok=%v count=%v", ok, st)
	}

	// Both front doors answer the median for both streams within ε.
	for _, ts := range []*httptest.Server{tsA, tsB} {
		for _, name := range []string{local, remote} {
			code, body := get(t, ts.URL+"/streams/"+name+"/quantile?phi=0.5")
			if code != http.StatusOK {
				t.Fatalf("quantile %s: status %d: %s", name, code, body)
			}
			v := jsonField(t, body, "value")
			if dev := v - n/2; dev < -2*0.02*n-1 || dev > 2*0.02*n+1 {
				t.Errorf("median of %s via %s = %d, want ≈%d", name, ts.URL, v, n/2)
			}
		}
		// The union plan merges both shards: 2n elements, median still n/2
		// (both streams carry 1..n).
		resp, err := http.Post(ts.URL+"/query", "application/json",
			strings.NewReader(fmt.Sprintf(`{"streams":[%q,%q],"phis":[0.5]}`, local, remote)))
		if err != nil {
			t.Fatal(err)
		}
		var res query.Result
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("union plan via %s: status %d, %v", ts.URL, resp.StatusCode, err)
		}
		win := res.Groups[0].Windows[0]
		if win.N != 2*n {
			t.Errorf("union n = %d, want %d", win.N, 2*n)
		}
		if dev := win.Values[0] - n/2; dev < -3*0.02*n-1 || dev > 3*0.02*n+1 {
			t.Errorf("union median = %d, want ≈%d", win.Values[0], n/2)
		}
	}

	// Rank and quantiles for b's stream answer from node a too, with rank
	// and total from the one fetched summary.
	code, body := get(t, tsA.URL+"/streams/"+remote+"/rank?v="+fmt.Sprint(n/2))
	if code != http.StatusOK {
		t.Fatalf("remote rank: status %d: %s", code, body)
	}
	if rank := jsonField(t, body, "rank"); rank < int(0.5*n-2*0.02*n-1) || rank > int(0.5*n+2*0.02*n+1) {
		t.Errorf("remote rank(%d) = %d, want ≈%d", n/2, rank, n/2)
	}
	if total := jsonField(t, body, "total"); total != n {
		t.Errorf("remote rank total = %d, want %d", total, n)
	}
	code, body = get(t, tsA.URL+"/streams/"+remote+"/quantiles?phi=0.25,0.75")
	if code != http.StatusOK {
		t.Fatalf("remote quantiles: status %d: %s", code, body)
	}

	// Both doors refuse what a member refuses: φ resolves by one rule, so an
	// out-of-range φ is a 400 on the non-member as well, not the maximum.
	for _, name := range []string{local, remote} {
		for _, path := range []string{"/quantile?phi=7", "/quantiles?phi=0.5,7", "/quantile?phi=0"} {
			if code, body := get(t, tsA.URL+"/streams/"+name+path); code != http.StatusBadRequest {
				t.Errorf("%s%s via a: status %d (%s), want 400", name, path, code, body)
			}
		}
	}
	// A non-member cannot window (it holds a summary, not partitions) and
	// says so on every read route; max-reads has nothing to cap there.
	for _, path := range []string{"/quantile?phi=0.5&window=1", "/quantiles?phi=0.5&window=1", "/rank?v=5&window=1"} {
		code, body := get(t, tsA.URL+"/streams/"+remote+path)
		if code != http.StatusBadRequest || !strings.Contains(string(body), "ask a member node") {
			t.Errorf("remote %s: status %d (%s), want the window refusal", path, code, body)
		}
	}
	if code, body := get(t, tsA.URL+"/streams/"+remote+"/quantile?phi=0.5&max-reads=1"); code != http.StatusOK {
		t.Errorf("remote max-reads: status %d (%s)", code, body)
	}

	// Unknown streams still 404 from every door (owner answers "no data").
	if code, _ := get(t, tsA.URL+"/streams/"+streamOn(srvB)+"x-missing/quantile?phi=0.5"); code != http.StatusNotFound && code != http.StatusOK {
		t.Errorf("missing stream: status %d", code)
	}
}

// TestClusterHTTPCoordinatorReadIsFresh holds a non-member's reads to the
// acknowledged writes: once the owner has confirmed a step, the next read
// through another node covers it, so its N is every confirmed value and its
// median is within the merged quick bound ⌈1.5·ε·N⌉ over all of them. The
// non-member reads once before the second step, so a node that kept the
// first fetch would answer over the first step only.
func TestClusterHTTPCoordinatorReadIsFresh(t *testing.T) {
	tsA, tsB, _, srvB := clusterTestServers(t, 1)
	name := "fresh-0"
	for i := 1; !srvB.cl.Member(name); i++ {
		name = fmt.Sprintf("fresh-%d", i)
	}
	const n = 2000
	step := func(lo int) {
		var body strings.Builder
		for v := lo; v < lo+n; v++ {
			fmt.Fprintf(&body, "%d\n", v)
		}
		postBody(t, tsB.URL+"/streams/"+name+"/observe", body.String())
		postBody(t, tsB.URL+"/streams/"+name+"/endstep", "")
	}
	rankTotal := func() int {
		code, body := get(t, tsA.URL+"/streams/"+name+"/rank?v="+fmt.Sprint(n))
		if code != http.StatusOK {
			t.Fatalf("rank via the non-member: status %d: %s", code, body)
		}
		return jsonField(t, body, "total")
	}

	step(1)
	if total := rankTotal(); total != n {
		t.Fatalf("after step 1: rank total = %d, want %d", total, n)
	}
	step(n + 1)
	total := rankTotal()
	resp, err := http.Post(tsA.URL+"/query", "application/json", strings.NewReader(fmt.Sprintf(`{"streams":[%q],"phis":[0.5]}`, name)))
	if err != nil {
		t.Fatal(err)
	}
	var res query.Result
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("POST /query via the non-member: status %d, %v", resp.StatusCode, err)
	}
	win := res.Groups[0].Windows[0]
	bound := int64(math.Ceil(1.5 * 0.02 * 2 * n))
	t.Logf("after step 2 via the non-member: rank total %d, query N %d, median %d (want %d, %d, %d±%d)", total, win.N, win.Values[0], 2*n, 2*n, n, bound)
	if total != 2*n || win.N != 2*n {
		t.Errorf("after step 2: rank total %d and query N %d, want %d: the read missed a confirmed step", total, win.N, 2*n)
	}
	if dev := win.Values[0] - n; dev < -bound || dev > bound {
		t.Errorf("after step 2: median %d is %d ranks from %d, bound %d", win.Values[0], dev, n, bound)
	}
}

// TestClusterHTTPReplicatedWrites runs two nodes at R=2 — every stream
// lives on both — and drives all writes through one door. The ack-gated
// 200 must mean the OTHER node also applied the batch, so its DB carries
// the exact count and answers queries locally.
func TestClusterHTTPReplicatedWrites(t *testing.T) {
	tsA, _, srvA, srvB := clusterTestServers(t, 2)

	const n = 2000
	var body strings.Builder
	for v := 1; v <= n; v++ {
		fmt.Fprintf(&body, "%d\n", v)
	}
	out := postBody(t, tsA.URL+"/streams/repl/observe", body.String())
	if int(out["observed"].(float64)) != n {
		t.Fatalf("observe: %v", out)
	}
	postBody(t, tsA.URL+"/streams/repl/endstep", "")

	for who, srv := range map[string]*server{"a": srvA, "b": srvB} {
		st, ok := srv.db.Lookup("repl")
		if !ok {
			t.Fatalf("node %s: stream not materialized", who)
		}
		if err := st.SyncMaintenance(); err != nil {
			t.Fatal(err)
		}
		if got := st.TotalCount(); got != n {
			t.Errorf("node %s: count = %d, want %d", who, got, n)
		}
		if got := st.Steps(); got != 1 {
			t.Errorf("node %s: steps = %d, want 1", who, got)
		}
	}
}

// jsonField extracts an integer field from a JSON response body.
func jsonField(t *testing.T, body []byte, key string) int {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad JSON %s: %v", body, err)
	}
	f, ok := m[key].(float64)
	if !ok {
		t.Fatalf("no numeric %q in %s", key, body)
	}
	return int(f)
}
