package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/hsqclient"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/wire"
)

func maxPendingSteps() int {
	if v := os.Getenv("HSQ_MAX_PENDING_STEPS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

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
			Maintenance: hsq.MaintenanceAsync, MaxPendingSteps: maxPendingSteps(), MaintenanceWorkers: 2,
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
