package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/hsqclient"
	"repro/internal/disk"
	"repro/internal/ingest"
	"repro/internal/wire"
)

// streamOwnedBy probes the deterministic ring for a stream name with the
// given prefix whose only members are exactly the wanted nodes.
func streamOwnedBy(t *testing.T, prefix string, all []*testNode, members ...*testNode) string {
	t.Helper()
	want := make(map[*testNode]bool, len(members))
	for _, m := range members {
		want[m] = true
	}
	for i := 0; i < 10_000; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		ok := true
		for _, n := range all {
			if n.srv.cl.Member(name) != want[n] {
				ok = false
				break
			}
		}
		if ok {
			return name
		}
	}
	t.Fatalf("no %s-N stream placed on the wanted members", prefix)
	return ""
}

// postCtx POSTs body under a deadline and returns the status (0 and the
// error text when the request itself failed, e.g. on the deadline).
func postCtx(t *testing.T, d time.Duration, url, body string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return resp.StatusCode, string(msg)
}

// TestForwardedWritesSurviveCoordinatorRestart: REST writes forwarded by a
// non-member must still land after that node restarts. The origin session a
// node forwards under is unique per process; were it a constant of the node
// ID, the live owner's marks for it (kept for SessionTTL) would discard the
// restarted node's renumbered frames as replays while the client gets a 200.
func TestForwardedWritesSurviveCoordinatorRestart(t *testing.T) {
	nodes, peers := clusterNodes(t, 1, "a", "b")
	a, b := nodes[0], nodes[1]
	name := streamOwnedBy(t, "restart", nodes, b)

	for i := 0; i < 3; i++ {
		postBody(t, a.ts.URL+"/streams/"+name+"/observe", "1\n2\n3\n")
	}
	postBody(t, a.ts.URL+"/streams/"+name+"/endstep", "")
	st, ok := b.srv.db.Lookup(name)
	if !ok || st.TotalCount() != 9 {
		t.Fatalf("before restart: stream on owner ok=%v", ok)
	}

	// Restart a: same node ID, same membership, a fresh process's state.
	a.stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a2 := startNode(t, "a", peers, 1, ln)
	out := postBody(t, a2.ts.URL+"/streams/"+name+"/observe", "4\n5\n")
	if out["forwarded"] != true {
		t.Fatalf("observe via restarted a: %v", out)
	}
	postBody(t, a2.ts.URL+"/streams/"+name+"/endstep", "")
	if err := st.SyncMaintenance(); err != nil {
		t.Fatal(err)
	}
	if got := st.TotalCount(); got != 11 {
		t.Errorf("owner count after coordinator restart = %d, want 11 (the restarted node's writes were acknowledged)", got)
	}
	if got := st.Steps(); got != 2 {
		t.Errorf("owner steps after coordinator restart = %d, want 2", got)
	}
}

// TestForwardedOversizeObserve: a REST observe through a non-member whose
// single-frame encoding exceeds wire.MaxFrameSize is split on the way and
// applied in full, and the relay channel stays usable afterwards. Unsplit,
// the frame can never be written: the channel requeues it forever and every
// later forwarded write to that peer queues behind it.
func TestForwardedOversizeObserve(t *testing.T) {
	nodes, _ := clusterNodes(t, 1, "a", "b")
	a, b := nodes[0], nodes[1]
	name := streamOwnedBy(t, "big", nodes, b)

	// Values spread over the int64 range: every delta needs a 9–10 byte
	// varint, so the batch encodes to ~3 MB against the 1 MB frame limit.
	const n = 300_000
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Uint64())
	}
	if enc := wire.AppendValues(nil, vals); len(enc) <= wire.MaxFrameSize {
		t.Fatalf("test batch encodes to %d bytes, not over the frame limit", len(enc))
	}
	body, err := json.Marshal(map[string]any{"values": vals})
	if err != nil {
		t.Fatal(err)
	}
	url := a.ts.URL + "/streams/" + name + "/observe"
	if code, msg := postCtx(t, 20*time.Second, url, string(body)); code != http.StatusOK {
		t.Fatalf("oversize forwarded observe: status %d (%s)", code, msg)
	}
	if code, msg := postCtx(t, 20*time.Second, url, "7\n"); code != http.StatusOK {
		t.Fatalf("small forwarded observe after the oversize one: status %d (%s)", code, msg)
	}
	st, ok := b.srv.db.Lookup(name)
	if !ok {
		t.Fatal("stream not materialized on its owner")
	}
	if got := st.StreamCount(); got != n+1 {
		t.Errorf("owner stream count = %d, want %d", got, n+1)
	}
}

// writeDoor is one way a write can enter a node. Each door of a topology
// gets its own stream and is fed the same operations.
type writeDoor struct {
	name    string
	stream  string
	members []*testNode
	observe func(vs []int64)
	endStep func()
	// bad posts a body whose k-th element is malformed and returns the
	// status; nil for the wire door (frames carry no text).
	bad func(k int) int
}

func linesBody(vs []int64) string {
	var sb strings.Builder
	for _, v := range vs {
		sb.WriteString(strconv.FormatInt(v, 10))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func jsonBody(vs []int64) string {
	b, _ := json.Marshal(map[string]any{"values": vs})
	return string(b)
}

// restDoor feeds stream through the REST surface at base, its
// /streams/{name} URL on the node the door posts to.
func restDoor(t *testing.T, name, base, stream string, members []*testNode, format func([]int64) string) *writeDoor {
	return &writeDoor{
		name: name, stream: stream, members: members,
		observe: func(vs []int64) { postBody(t, base+"/observe", format(vs)) },
		endStep: func() { postBody(t, base+"/endstep", "") },
		bad: func(k int) int {
			body := format([]int64{1, 2, 3, 4, 5})
			// The elements are their own indices, so this corrupts the
			// k-th in either format.
			body = strings.Replace(body, strconv.Itoa(k), "x"+strconv.Itoa(k), 1)
			code, _ := postCtx(t, 20*time.Second, base+"/observe", body)
			return code
		},
	}
}

// wireDoor feeds stream through an hsqclient connection to node, one Batch
// frame per observe.
func wireDoor(t *testing.T, stream string, node *testNode, members []*testNode) *writeDoor {
	c, err := hsqclient.Dial(node.srv.ingAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	st := c.Stream(stream)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	return &writeDoor{
		name: "wire", stream: stream, members: members,
		observe: func(vs []int64) { must(st.ObserveSlice(vs)); must(c.Flush()) },
		endStep: func() { must(st.EndStep()); must(c.Flush()) },
	}
}

// doorOutcome is everything the doors must agree on.
type doorOutcome struct {
	Total, StreamCount int64
	Steps              int
	Levels             []hsq.LevelInfo
	Ingest             ingest.StreamIngestStats
	Pushes             uint64
}

// TestWriteDoorsEquivalent delivers one seeded sequence of batches and
// end-steps through every write door — an hsqclient connection, local REST
// in both body formats, REST via a non-member — on a single node and on a
// 3-node R=2 cluster, and requires the same engine state, the same GET
// /ingest tallies and the same number of continuous-query pushes behind each
// door, on every member of each stream. Then a body with one bad element
// must leave every REST door's stream untouched.
func TestWriteDoorsEquivalent(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("HSQ_PROP_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad HSQ_PROP_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("seed %d (replay with HSQ_PROP_SEED)", seed)

	t.Run("single-node", func(t *testing.T) {
		srv, err := newServer(serverConfig{backend: "mem", epsilon: 0.02, kappa: 3})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.ingAddr = ln.Addr().String()
		go srv.ing.Serve(ln) //nolint:errcheck
		ts := httptest.NewServer(srv.mux())
		t.Cleanup(func() {
			ts.Close()
			srv.ing.Shutdown(context.Background()) //nolint:errcheck
		})
		self := []*testNode{{srv: srv, ts: ts}}
		runDoors(t, seed, []*writeDoor{
			wireDoor(t, "d-wire", self[0], self),
			restDoor(t, "rest-lines", ts.URL+"/streams/d-lines", "d-lines", self, linesBody),
			restDoor(t, "rest-json", ts.URL+"/streams/d-json", "d-json", self, jsonBody),
		})
	})

	t.Run("three-nodes-R2", func(t *testing.T) {
		nodes, _ := clusterNodes(t, 2, "a", "b", "c")
		// Two members and one outsider per stream, wherever the ring puts
		// them: the local doors post to a member, "via" to the outsider.
		place := func(stream string) (members []*testNode, outsider *testNode) {
			for _, n := range nodes {
				if n.srv.cl.Member(stream) {
					members = append(members, n)
				} else {
					outsider = n
				}
			}
			if len(members) != 2 || outsider == nil {
				t.Fatalf("stream %q: %d members of 3 nodes at R=2", stream, len(members))
			}
			return members, outsider
		}
		var doors []*writeDoor
		m, _ := place("d-wire")
		doors = append(doors, wireDoor(t, "d-wire", m[0], m))
		m, _ = place("d-lines")
		doors = append(doors, restDoor(t, "rest-lines", m[0].ts.URL+"/streams/d-lines", "d-lines", m, linesBody))
		m, _ = place("d-json")
		doors = append(doors, restDoor(t, "rest-json", m[1].ts.URL+"/streams/d-json", "d-json", m, jsonBody))
		m, out := place("d-via")
		doors = append(doors, restDoor(t, "rest-via-non-member", out.ts.URL+"/streams/d-via", "d-via", m, linesBody))
		runDoors(t, seed, doors)
	})
}

// runDoors feeds every door the same seeded operations and compares what
// each member of each door's stream ended up with.
func runDoors(t *testing.T, seed int64, doors []*writeDoor) {
	t.Helper()
	type watch struct {
		door *writeDoor
		node *testNode
		sub  *hsqclient.Subscription
		seen uint64
	}
	// One standing query per (door, member): its pushes are the observable
	// of the EndStep nudge, and waiting each one out keeps the count free of
	// the debounce's coalescing.
	var watches []*watch
	for _, d := range doors {
		for _, n := range d.members {
			c, err := hsqclient.Dial(n.srv.ingAddr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() }) //nolint:errcheck
			sub, err := c.Subscribe(context.Background(), []byte(fmt.Sprintf(`{"match":%q,"phis":[0.5]}`, d.stream)))
			if err != nil {
				t.Fatal(err)
			}
			watches = append(watches, &watch{door: d, node: n, sub: sub})
		}
	}
	awaitPush := func(d *writeDoor) {
		t.Helper()
		for _, w := range watches {
			if w.door != d {
				continue
			}
			select {
			case u, ok := <-w.sub.Updates():
				if !ok {
					t.Fatalf("door %s: subscription on %s closed", d.name, w.node.srv.ingAddr)
				}
				w.seen = u.Seq
			case <-time.After(30 * time.Second):
				t.Fatalf("door %s: no push on a member after an end-step (seen %d)", d.name, w.seen)
			}
		}
	}
	for _, d := range doors {
		awaitPush(d) // the registration push
	}

	rng := rand.New(rand.NewSource(seed))
	steps := 0
	for op := 0; op < 40 || steps == 0; op++ {
		if rng.Intn(4) == 0 {
			steps++
			for _, d := range doors {
				d.endStep()
				awaitPush(d)
			}
			continue
		}
		vs := make([]int64, 1+rng.Intn(300))
		for i := range vs {
			vs[i] = rng.Int63n(1_000_000) - 500_000
		}
		for _, d := range doors {
			d.observe(vs)
		}
	}

	outcome := func(d *writeDoor, n *testNode) doorOutcome {
		t.Helper()
		st, ok := n.srv.db.Lookup(d.stream)
		if !ok {
			t.Fatalf("door %s: stream %q not on member %s", d.name, d.stream, n.srv.ingAddr)
		}
		if err := st.SyncMaintenance(); err != nil {
			t.Fatal(err)
		}
		out := doorOutcome{
			Total: st.TotalCount(), StreamCount: st.StreamCount(), Steps: st.Steps(),
			Levels: st.Describe(), Ingest: n.srv.ing.Stats().Streams[d.stream],
		}
		for _, w := range watches {
			if w.door == d && w.node == n {
				out.Pushes = w.seen
			}
		}
		return out
	}
	// Steps() counts only steps that carried data, so it is compared across
	// doors; the tallies and pushes count every end-step delivered.
	want := outcome(doors[0], doors[0].members[0])
	if want.Steps == 0 || want.Ingest.EndSteps != uint64(steps) || want.Pushes != uint64(steps)+1 {
		t.Fatalf("door %s: %d steps, %d ingest end_steps, %d pushes; want > 0, %d, %d",
			doors[0].name, want.Steps, want.Ingest.EndSteps, want.Pushes, steps, steps+1)
	}
	for _, d := range doors {
		for i, n := range d.members {
			if got := outcome(d, n); !reflect.DeepEqual(got, want) {
				t.Errorf("door %s, member %d differs from door %s:\n got %+v\nwant %+v", d.name, i, doors[0].name, got, want)
			}
		}
	}

	// Atomic bodies: a bad element at line k applies nothing, on any door.
	for _, d := range doors {
		if d.bad == nil {
			continue
		}
		for _, k := range []int{1, 3, 5} {
			if code := d.bad(k); code != http.StatusBadRequest {
				t.Errorf("door %s: bad element %d: status %d, want 400", d.name, k, code)
			}
		}
		for i, n := range d.members {
			if got := outcome(d, n); got.StreamCount != want.StreamCount || got.Ingest != want.Ingest {
				t.Errorf("door %s, member %d: a rejected body moved the stream: count %d → %d, ingest %+v → %+v",
					d.name, i, want.StreamCount, got.StreamCount, want.Ingest, got.Ingest)
			}
		}
	}
}

// syncCounter counts the durability barriers a backend is asked for.
type syncCounter struct {
	disk.Backend
	syncs atomic.Int64
}

func (b *syncCounter) Sync() error {
	b.syncs.Add(1)
	return b.Backend.Sync()
}

// TestRESTEndStepDurableWithoutCheckpoint: a REST end-step is durable when
// it returns — a server dropped without Close reopens with the step — and it
// costs the backend exactly the syncs a wire end-step does: the step's own
// commit, with no second manifest commit behind it.
func TestRESTEndStepDurableWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, err := newServer(serverConfig{dir: dir, epsilon: 0.05, kappa: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	postBody(t, ts.URL+"/streams/durable/observe", "1\n2\n3\n4\n5\n")
	postBody(t, ts.URL+"/streams/durable/endstep", "")
	ts.Close() // the process "dies": no DB.Close, no final checkpoint
	srv2, err := newServer(serverConfig{dir: dir, epsilon: 0.05, kappa: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := srv2.db.Lookup("durable")
	if !ok || st.Steps() != 1 || st.TotalCount() != 5 {
		t.Fatalf("reopened without Close: stream ok=%v, want 1 step of 5 values", ok)
	}

	// The same step through both doors of one server over a counting device.
	dev := &syncCounter{Backend: disk.NewMemBackend()}
	db, err := hsq.Open(hsq.Options{Epsilon: 0.05, Kappa: 3, Device: dev, Maintenance: "sync"})
	if err != nil {
		t.Fatal(err)
	}
	csrv := &server{db: db, ing: ingest.New(ingest.Config{DB: db})}
	cts := httptest.NewServer(csrv.mux())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go csrv.ing.Serve(ln) //nolint:errcheck
	t.Cleanup(func() {
		cts.Close()
		csrv.ing.Shutdown(context.Background()) //nolint:errcheck
		db.Close()                              //nolint:errcheck
	})
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = int64(i) * math.MaxInt16
	}

	postBody(t, cts.URL+"/streams/via-rest/observe", linesBody(vals))
	before := dev.syncs.Load()
	postBody(t, cts.URL+"/streams/via-rest/endstep", "")
	restSyncs := dev.syncs.Load() - before

	c, err := hsqclient.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	ws := c.Stream("via-wire")
	if err := ws.ObserveSlice(vals); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	before = dev.syncs.Load()
	if err := ws.EndStep(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	wireSyncs := dev.syncs.Load() - before

	t.Logf("backend syncs per end-step: REST %d, wire %d", restSyncs, wireSyncs)
	if restSyncs != wireSyncs || wireSyncs == 0 {
		t.Errorf("REST end-step issued %d syncs, wire end-step %d; want equal and nonzero", restSyncs, wireSyncs)
	}
}
