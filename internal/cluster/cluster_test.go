package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/hsqclient"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/oracle"
	"repro/internal/wire"
)

// TestClusterEndToEnd is the acceptance test for the sharded deployment:
// a 3-node cluster with replication factor 2 over real sockets, several
// streams fed through one failover-aware client whose FIRST address is
// the owner of stream 0 — and that owner is killed mid-step. The client
// must fail over to a replica, the session replay must restate exactly
// what was applied, and at the end every surviving member of every stream
// must hold the exact element count and ε-accurate quantiles. Any lost or
// doubled frame shows up as a count mismatch; any misrouted frame shows
// up as a stream materialized on a non-member.
func TestClusterEndToEnd(t *testing.T) {
	const (
		eps     = 0.05
		names   = 3
		steps   = 8
		perStep = 2000
	)
	h, err := NewHarness(HarnessConfig{
		Nodes:    3,
		Replicas: 2,
		Options: hsq.Options{
			Epsilon: eps, Kappa: 2, Backend: "mem", BlockSize: 4096,
		},
		DownAfter: 300 * time.Millisecond,
		DownRetry: 500 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	streams := make([]string, names)
	data := make([][]int64, names)
	for i := range streams {
		streams[i] = fmt.Sprintf("e2e-%d", i)
		rng := rand.New(rand.NewSource(int64(7 + i)))
		vs := make([]int64, steps*perStep)
		for j := range vs {
			vs[j] = int64(i*10_000_000) + rng.Int63n(1_000_000)
		}
		data[i] = vs
	}

	// Dial with the victim (stream 0's owner) first so the client's live
	// connection is the one that dies.
	victim := -1
	owner := h.Ring.Owner(streams[0])
	addrs := []string{owner.Addr}
	for i, hn := range h.Nodes {
		if hn.Node.ID == owner.ID {
			victim = i
			continue
		}
		addrs = append(addrs, hn.Node.Addr)
	}
	c, err := hsqclient.Dial(strings.Join(addrs, ","),
		hsqclient.WithBatchSize(256),
		hsqclient.WithSession("cluster-e2e"),
		hsqclient.WithReconnectBackoff(time.Millisecond, 50*time.Millisecond),
		hsqclient.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	feed := func(from, to int, killAt int) {
		for s := from; s < to; s++ {
			for i, name := range streams {
				st := c.Stream(name)
				chunk := data[i][s*perStep : (s+1)*perStep]
				for j, v := range chunk {
					if err := st.Observe(v); err != nil {
						t.Fatal(err)
					}
					// Kill the owner mid-chunk, mid-step: frames (often a
					// partial batch) are in flight and the step marker has
					// not been sent.
					if s == killAt && i == 0 && j == perStep/2 {
						t.Logf("killing node %s (owner of %s)", owner.ID, streams[0])
						h.Kill(victim)
					}
				}
				if err := st.EndStep(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	feed(0, steps/2, -1)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	feed(steps/2, steps, steps/2) // owner dies inside the first step here
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	for i, name := range streams {
		members := map[string]bool{}
		for _, m := range h.Ring.Members(name) {
			members[m.ID] = true
		}
		or := oracle.New(len(data[i]))
		or.Add(data[i]...)
		n := int64(len(data[i]))
		bound := int64(eps*float64(n)) + 1
		checked := 0
		for ni, hn := range h.Nodes {
			st, ok := hn.DB.Lookup(name)
			if !members[hn.Node.ID] {
				if ok {
					t.Errorf("stream %q materialized on non-member %s", name, hn.Node.ID)
				}
				continue
			}
			if ni == victim {
				continue // the dead owner may legitimately be mid-step
			}
			if !ok {
				t.Fatalf("stream %q missing on surviving member %s", name, hn.Node.ID)
			}
			if err := st.SyncMaintenance(); err != nil {
				t.Fatal(err)
			}
			if got := st.TotalCount(); got != n {
				t.Fatalf("stream %q on %s: count %d, want %d (lost or duplicated frames)",
					name, hn.Node.ID, got, n)
			}
			if got := st.Steps(); got != steps {
				t.Fatalf("stream %q on %s: steps %d, want %d", name, hn.Node.ID, got, steps)
			}
			for _, phi := range []float64{0.05, 0.5, 0.95, 0.99} {
				v, _, err := st.Quantile(phi)
				if err != nil {
					t.Fatal(err)
				}
				target, err := core.RankTarget(phi, n)
				if err != nil {
					t.Fatal(err)
				}
				if spanErr := or.SpanError(target, v); spanErr > bound {
					t.Errorf("stream %q on %s: quantile(%g)=%d rank error %d > ε·n=%d",
						name, hn.Node.ID, phi, v, spanErr, bound)
				}
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("stream %q: no surviving member checked", name)
		}
	}
}

// TestScatterGatherQuantile pins the cluster query path end to end: with
// replication factor 1, streams scatter across shards; gathering every
// shard's serialized summary for a set of streams and merging them must
// answer rank queries over the UNION of the streams within the quick-query
// bound (1.5·ε·N) — the exact computation hsqd's POST /query performs for
// a plan over streams other shards own. Distribution may cost latency but
// never accuracy: the same bound holds at one, two and three shards.
func TestScatterGatherQuantile(t *testing.T) {
	for _, nodes := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", nodes), func(t *testing.T) { scatterGather(t, nodes) })
	}
}

func scatterGather(t *testing.T, nodes int) {
	const (
		eps      = 0.02
		nStreams = 5
		perSt    = 6000
	)
	h, err := NewHarness(HarnessConfig{
		Nodes:    nodes,
		Replicas: 1,
		Options:  hsq.Options{Epsilon: eps, Backend: "mem"},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	c, err := hsqclient.Dial(h.Addrs(), hsqclient.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	// Pick stream names that provably scatter: at most ⌈5/nodes⌉ per
	// owning shard, so five streams span every shard.
	streams := make([]string, 0, nStreams)
	perOwner := map[string]int{}
	for i := 0; len(streams) < nStreams && i < 10_000; i++ {
		name := fmt.Sprintf("sg-%d", i)
		owner := h.Ring.Owner(name).ID
		if perOwner[owner] < (nStreams+nodes-1)/nodes {
			perOwner[owner]++
			streams = append(streams, name)
		}
	}
	var union []int64
	rng := rand.New(rand.NewSource(11))
	owners := map[string]bool{}
	for i := range streams {
		owners[h.Ring.Owner(streams[i]).ID] = true
		st := c.Stream(streams[i])
		for j := 0; j < perSt; j++ {
			v := rng.Int63n(5_000_000)
			union = append(union, v)
			if err := st.Observe(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(owners) != nodes {
		t.Fatalf("%d streams landed on %d of %d shards; pick different names", nStreams, len(owners), nodes)
	}

	// Gather one summary per (stream, owner) — what a coordinator does.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var shards []*core.ShardSummary
	for _, name := range streams {
		sum, err := FetchSummary(ctx, 2*time.Second, h.Ring.Owner(name), name)
		if err != nil {
			t.Fatal(err)
		}
		if sum == nil {
			t.Fatalf("owner of %q returned no summary", name)
		}
		shards = append(shards, sum)
	}
	merged, total, err := core.MergeShardSummaries(shards)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(union))
	if total != n {
		t.Fatalf("merged N = %d, want %d", total, n)
	}
	or := oracle.New(len(union))
	or.Add(union...)
	bound := int64(1.5*eps*float64(n)) + 1
	for _, phi := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		r, err := core.RankTarget(phi, n)
		if err != nil {
			t.Fatal(err)
		}
		v, err := merged.QuickQuery(r)
		if err != nil {
			t.Fatal(err)
		}
		if spanErr := or.SpanError(r, v); spanErr > bound {
			t.Errorf("merged quantile(%g)=%d rank error %d > 1.5ε·n=%d", phi, v, spanErr, bound)
		}
	}

	// A non-owner shard answers the same stream with an empty summary.
	for _, hn := range h.Nodes {
		if hn.Node.ID == h.Ring.Owner(streams[0]).ID {
			continue
		}
		sum, err := FetchSummary(ctx, 2*time.Second, hn.Node, streams[0])
		if err != nil {
			t.Fatal(err)
		}
		if sum != nil {
			t.Errorf("non-owner %s returned a summary for %q", hn.Node.ID, streams[0])
		}
		break
	}
}

// TestLeafRelayDropsAfterDownAfter pins the asymmetric give-up policy's
// fan-out half: when a follower stays unreachable, the leaf channel drops
// its frames after DownAfter (counting them) and WaitRelayed resolves —
// an explicit, bounded replication gap instead of a wedged producer.
func TestLeafRelayDropsAfterDownAfter(t *testing.T) {
	ring := mustRing(t, Membership{Epoch: 1, Replicas: 2, Nodes: []Node{
		{ID: "a", Addr: "127.0.0.1:1"}, // self; never dialed
		{ID: "b", Addr: "127.0.0.1:9"}, // discard port — nothing listens
	}})
	cl, err := New(Config{Self: "a", Ring: ring, DialTimeout: 50 * time.Millisecond,
		DownAfter: 100 * time.Millisecond, DownRetry: time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	f := &wire.Frame{Type: wire.TypeEndStep, Seq: 1, StreamID: 1}
	if err := cl.Relay("s", "stream", f, false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.WaitRelayed(ctx, "s", 1); err != nil {
		t.Fatalf("leaf relay to a down follower must resolve by dropping, got %v", err)
	}
	stats := cl.Stats()
	var dropped uint64
	for _, s := range stats {
		dropped += s.Dropped
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1 (stats: %+v)", dropped, stats)
	}
}

// TestRelayRefusesUnencodableFrame: a frame a relay channel cannot encode
// fails its waiter with the encode error, so the ingest server errors the
// client instead of acking it; it is counted dropped; and the frames behind
// it still reach the follower, which is never declared down.
func TestRelayRefusesUnencodableFrame(t *testing.T) {
	h, err := NewHarness(HarnessConfig{Nodes: 2, Replicas: 2, Options: hsq.Options{Epsilon: 0.05}, DownAfter: 200 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	from, to := h.Nodes[0], h.Nodes[1]
	vals := make([]int64, 200_000)
	for i := range vals {
		vals[i] = int64(i%2) << 60 // every delta a nine-byte varint: ~1.8 MB encoded
	}
	if err := from.Cluster.Relay("s", "big", &wire.Frame{Type: wire.TypeBatch, Seq: 1, Values: vals}, false); err != nil {
		t.Fatal(err)
	}
	if err := from.Cluster.Relay("s", "big", &wire.Frame{Type: wire.TypeEndStep, Seq: 2}, false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := from.Cluster.WaitRelayed(ctx, "s", 2); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("WaitRelayed = %v, want an error wrapping wire.ErrFrameTooLarge", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("the encode error took %v, want < 1s", d)
	}
	if err := from.Cluster.WaitRelayed(ctx, "s", 2); err != nil {
		t.Fatalf("the EndStep behind the refused frame: %v", err)
	}
	if got := to.Server.Stats().Streams["big"].EndSteps; got != 1 {
		t.Errorf("follower applied %d end-steps, want 1", got)
	}
	stats := from.Cluster.Stats()
	if len(stats) != 1 || stats[0].Down || stats[0].Dropped != 1 {
		t.Errorf("stats %+v, want one node, not down, 1 dropped", stats)
	}
}

// bindingPeer is an ingest peer for the stream-limit tests: it binds stream
// IDs as the ingest server does, refusing a new one past wire.MaxConnStreams
// on a connection with ErrCodeStream, answers every Ping, and records the
// connections it accepted and the streams a Batch reached. It stores no
// stream, so the tests need not register 65 537 of them in a DB.
type bindingPeer struct {
	addr           string
	mu             sync.Mutex
	conns, refused int
	fed            map[string]bool
}

func newBindingPeer(t *testing.T) *bindingPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() }) //nolint:errcheck
	p := &bindingPeer{addr: ln.Addr().String(), fed: make(map[string]bool)}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns++
			p.mu.Unlock()
			go p.serve(nc)
		}
	}()
	return p
}

func (p *bindingPeer) serve(nc net.Conn) {
	defer nc.Close() //nolint:errcheck
	r, w := wire.NewReader(nc), wire.NewWriter(nc)
	names := make(map[uint64]string)
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return
		}
		var out *wire.Frame
		p.mu.Lock()
		switch _, ok := names[f.StreamID]; {
		case f.Type == wire.TypeHello:
			out = &wire.Frame{Type: wire.TypeWelcome, Version: wire.Version, Credit: 64}
		case f.Type == wire.TypeOpenStream && !ok && len(names) >= wire.MaxConnStreams:
			p.refused++
			out = &wire.Frame{Type: wire.TypeError, Code: wire.ErrCodeStream, Message: "past MaxConnStreams"}
		case f.Type == wire.TypeOpenStream:
			names[f.StreamID] = f.Name
		case f.Type == wire.TypeBatch:
			p.fed[names[f.StreamID]] = true
		case f.Type == wire.TypePing:
			out = &wire.Frame{Type: wire.TypePong, Seq: f.Seq}
		}
		p.mu.Unlock()
		if out != nil && (w.WriteFrame(out) != nil || w.Flush() != nil) {
			return
		}
	}
}

// check requires every one of streams fed, over two connections (the
// first one full), and no binding refused.
func (p *bindingPeer) check(t *testing.T, streams int) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.fed) != streams || p.conns != 2 || p.refused != 0 {
		t.Errorf("peer: %d streams fed over %d connections, %d bindings refused; want %d over 2, none refused",
			len(p.fed), p.conns, p.refused, streams)
	}
}

// TestClientRollsPastStreamLimit: an hsqclient writing to one stream more
// than a connection may bind ends its full connection once every write on it
// is confirmed and binds the rest on a new one. Its Flush confirms every
// write and the client stays usable.
func TestClientRollsPastStreamLimit(t *testing.T) {
	p := newBindingPeer(t)
	c, err := hsqclient.Dial(p.addr, hsqclient.WithSession("roll"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	const streams = wire.MaxConnStreams + 1
	for i := range streams {
		if err := c.Stream(fmt.Sprintf("s%d", i)).Observe(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	p.check(t, streams)
}

// TestRelayRollsPastStreamLimit: a node's relay session to a peer, which on
// a cluster node carries every REST write, rolls its connection the same way
// and WaitRelayed confirms every frame.
func TestRelayRollsPastStreamLimit(t *testing.T) {
	p := newBindingPeer(t)
	ring := mustRing(t, Membership{Epoch: 1, Replicas: 2, Nodes: []Node{
		{ID: "a", Addr: "127.0.0.1:1"}, // self; never dialed
		{ID: "b", Addr: p.addr},
	}})
	cl, err := New(Config{Self: "a", Ring: ring, DialTimeout: 5 * time.Second,
		DownAfter: time.Minute, DownRetry: time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const streams = wire.MaxConnStreams + 1
	for i := range streams {
		f := &wire.Frame{Type: wire.TypeBatch, Seq: uint64(i + 1), Values: []int64{int64(i)}}
		if err := cl.Relay("origin", fmt.Sprintf("s%d", i), f, false); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cl.WaitRelayed(ctx, "origin", streams); err != nil {
		t.Fatal(err)
	}
	p.check(t, streams)
}

// TestFailoverFlushWaitsForFanOut: a client's node dies and the client fails
// over to the stream's owner, whose Welcome reports the client's frames
// applied while the owner's fan-out of them to the follower is still
// pending. The client's Flush must not return before the follower has them:
// if the owner died next, a frame only it held would be lost.
func TestFailoverFlushWaitsForFanOut(t *testing.T) {
	h, err := NewHarness(HarnessConfig{Nodes: 3, Replicas: 2, Options: hsq.Options{Epsilon: 0.05}, DownAfter: time.Minute, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	const stream = "fan-out"
	members := h.Ring.Members(stream)
	entry := -1
	var owner, follower *HarnessNode
	for i, hn := range h.Nodes {
		switch hn.Node.ID {
		case members[0].ID:
			owner = hn
		case members[1].ID:
			follower = hn
		default:
			entry = i
		}
	}
	// The follower is down before any data; DownAfter is far off, so the
	// owner's fan-out to it waits.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	follower.Server.Shutdown(ctx) //nolint:errcheck
	follower.ln.Close()           //nolint:errcheck // Serve may not have taken it yet

	c, err := hsqclient.Dial(h.Nodes[entry].Node.Addr+","+owner.Node.Addr, hsqclient.WithSession("fan-out"),
		hsqclient.WithReconnectBackoff(time.Millisecond, 20*time.Millisecond), hsqclient.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	st := c.Stream(stream)
	if err := st.ObserveSlice([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := st.EndStep(); err != nil {
		t.Fatal(err)
	}
	for { // the entry node routes the step to the owner
		if s, ok := owner.DB.Lookup(stream); ok && s.Steps() == 1 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("the owner never applied the step")
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.Kill(entry)
	fctx, fcancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer fcancel()
	if err := c.FlushCtx(fctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Flush = %v while the follower lacks the step, want the deadline", err)
	}

	ln, err := net.Listen("tcp", follower.Node.Addr) // the follower comes back
	if err != nil {
		t.Fatal(err)
	}
	follower.ln, follower.Server = ln, ingest.New(ingest.Config{DB: follower.DB, Cluster: follower.Cluster, Logf: t.Logf})
	go follower.Server.Serve(ln) //nolint:errcheck
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if s, ok := follower.DB.Lookup(stream); !ok || s.Steps() != 1 || s.TotalCount() != 3 {
		t.Fatalf("Flush returned before the follower held the step (stream found: %v)", ok)
	}
}

// TestRoutedRelayFailsWhenNoMemberLeft pins the routing half: a frame for
// a stream this node does not store, whose every member is unreachable,
// must surface an error from WaitRelayed (so the ingest server errors the
// client connection instead of acking unplaced data).
func TestRoutedRelayFailsWhenNoMemberLeft(t *testing.T) {
	ring := mustRing(t, Membership{Epoch: 1, Replicas: 1, Nodes: []Node{
		{ID: "a", Addr: "127.0.0.1:1"},
		{ID: "b", Addr: "127.0.0.1:9"},
	}})
	cl, err := New(Config{Self: "a", Ring: ring, DialTimeout: 50 * time.Millisecond,
		DownAfter: 100 * time.Millisecond, DownRetry: time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Find a stream owned by b (a is not a member, so Relay routes).
	stream := ""
	for i := 0; i < 1000; i++ {
		s := fmt.Sprintf("probe-%d", i)
		if ring.Owner(s).ID == "b" {
			stream = s
			break
		}
	}
	if stream == "" {
		t.Fatal("no stream owned by b in 1000 probes")
	}
	f := &wire.Frame{Type: wire.TypeEndStep, Seq: 1, StreamID: 1}
	if err := cl.Relay("s", stream, f, false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.WaitRelayed(ctx, "s", 1); err == nil {
		t.Fatal("WaitRelayed resolved with every member of the stream down")
	}
}
