package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/sender"
	"repro/internal/wire"
)

// Defaults for the relay transport knobs.
const (
	DefaultDialTimeout = 2 * time.Second
	DefaultDownAfter   = 3 * time.Second
	DefaultDownRetry   = 5 * time.Second
)

// Config parametrizes a Cluster.
type Config struct {
	// Self is this node's ID; it must appear in Ring's membership.
	Self string
	// Ring is the placement function (shared, immutable).
	Ring *Ring
	// DialTimeout bounds each relay/peer dial attempt. 0 means
	// DefaultDialTimeout.
	DialTimeout time.Duration
	// DownAfter is how long a relay keeps failing to reach a node before
	// declaring it down — dropping its fan-out frames (leaf) or rerouting
	// its frames to the next live member (routed) — and, until the node
	// confirms a frame again, doing so at each further failure. 0 means
	// DefaultDownAfter.
	DownAfter time.Duration
	// DownRetry is how long a down node is skipped by routing decisions
	// before being probed again. 0 means DefaultDownRetry.
	DownRetry time.Duration
	// Logf, when non-nil, receives relay lifecycle log lines.
	Logf func(format string, args ...any)
}

// Cluster is one node's view of the sharded deployment: the ring, plus the
// set of live relay channels fanning applied frames to followers and
// routing misdirected frames to their owning shard. It implements the
// ingest server's cluster hook. It keeps no read state (see Summary).
type Cluster struct {
	cfg  Config
	self Node

	mu         sync.Mutex
	relays     map[relayKey]*relay
	downUntil  map[string]time.Time // node ID → skip routing until
	rerouteGen uint64               // bumped whenever frames move between relays
	closed     bool
}

// relayKey identifies one relay channel: frames for one session toward one
// node, in one mode. Leaf channels carry fan-out copies of locally applied
// frames; routed channels carry frames this node does not store.
type relayKey struct {
	node    string
	session string
	leaf    bool
}

// New builds the cluster layer for one node.
func New(cfg Config) (*Cluster, error) {
	if cfg.Ring == nil {
		return nil, fmt.Errorf("cluster: nil ring")
	}
	self, ok := cfg.Ring.NodeByID(cfg.Self)
	if !ok {
		return nil, fmt.Errorf("cluster: self id %q not in membership", cfg.Self)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = DefaultDownAfter
	}
	if cfg.DownRetry <= 0 {
		cfg.DownRetry = DefaultDownRetry
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Cluster{
		cfg:       cfg,
		self:      self,
		relays:    make(map[relayKey]*relay),
		downUntil: make(map[string]time.Time),
	}, nil
}

// Self returns this node's identity.
func (c *Cluster) Self() Node { return c.self }

// Ring returns the placement ring.
func (c *Cluster) Ring() *Ring { return c.cfg.Ring }

// Member reports whether this node stores stream (owner or follower) —
// the ingest server's "apply locally?" predicate.
func (c *Cluster) Member(stream string) bool {
	return c.cfg.Ring.IsMember(c.self.ID, stream)
}

// Relay hands one sequenced frame (original session token, original
// sequence number) to the cluster transport.
//
// When this node is a member of the stream, the frame was applied locally
// and is fanned out to every other member over leaf channels. When it is
// not and fanOnly is false, the frame is routed to the first live member,
// which applies it and fans it out in turn. fanOnly=true marks frames that
// arrived over an already-routed connection: they fan but never route
// again, bounding every frame's path to client → router → owner →
// followers.
//
// The error path matters for acks: a frame that cannot even be enqueued
// toward a live node must not be acknowledged to the client, so the
// ingest server turns a Relay error into a connection error and the
// client retries elsewhere.
func (c *Cluster) Relay(session, stream string, f *wire.Frame, fanOnly bool) error {
	members := c.cfg.Ring.Members(stream)
	selfMember := slices.ContainsFunc(members, func(n Node) bool { return n.ID == c.self.ID })
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("cluster: closed")
	}
	if selfMember || fanOnly {
		// Fan the applied frame to every other member. A member we cannot
		// reach is the leaf relay's problem (drop after DownAfter).
		for _, n := range members {
			if n.ID == c.self.ID {
				continue
			}
			c.relayLocked(n, session, true).Send(sender.Item{Stream: stream, F: f}) //nolint:errcheck // a stopped channel fails its waiters
		}
		return nil
	}
	n, ok := c.firstLiveLocked(members)
	if !ok {
		return fmt.Errorf("cluster: no live member for stream %q (owner %s)", stream, members[0].ID)
	}
	c.relayLocked(n, session, false).Send(sender.Item{Stream: stream, F: f}) //nolint:errcheck // a stopped channel fails its waiters
	return nil
}

// WaitRelayed blocks until every frame relayed for session with sequence
// number ≤ seq has been acknowledged by its target (or resolved: dropped
// by a leaf channel whose target is down, or rerouted). The ingest server
// calls it before acknowledging the client, which is what makes client
// acks chain-gated: an acked frame is applied on every reachable member.
func (c *Cluster) WaitRelayed(ctx context.Context, session string, seq uint64) error {
	for {
		c.mu.Lock()
		gen := c.rerouteGen
		var rs []*relay
		for k, r := range c.relays {
			if k.session == session {
				rs = append(rs, r)
			}
		}
		c.mu.Unlock()
		for _, r := range rs {
			if err := r.Wait(ctx, seq); err != nil {
				return err
			}
		}
		c.mu.Lock()
		again := c.rerouteGen != gen
		c.mu.Unlock()
		if !again {
			return nil
		}
		// Frames were rerouted while we waited — they may now sit on a relay
		// our snapshot missed. Re-snapshot and wait again.
	}
}

// relayLocked returns (creating on demand) the relay channel for a key.
func (c *Cluster) relayLocked(n Node, session string, leaf bool) *relay {
	k := relayKey{node: n.ID, session: session, leaf: leaf}
	r, ok := c.relays[k]
	if !ok {
		r = newRelay(c, n, session, leaf)
		c.relays[k] = r
	}
	return r
}

// firstLiveLocked picks the first member not currently marked down.
func (c *Cluster) firstLiveLocked(members []Node) (Node, bool) {
	now := time.Now()
	for _, n := range members {
		if n.ID == c.self.ID {
			continue // routing never targets self: self not a member here
		}
		if until, down := c.downUntil[n.ID]; down && now.Before(until) {
			continue
		}
		return n, true
	}
	return Node{}, false
}

// nodeDown records a node as unreachable so routing skips it for a while.
func (c *Cluster) nodeDown(n Node) {
	c.mu.Lock()
	c.downUntil[n.ID] = time.Now().Add(c.cfg.DownRetry)
	c.mu.Unlock()
	c.cfg.Logf("cluster: node %s (%s) marked down", n.ID, n.Addr)
}

// nodeUp clears a node's down mark after a successful connection.
func (c *Cluster) nodeUp(n Node) {
	c.mu.Lock()
	delete(c.downUntil, n.ID)
	c.mu.Unlock()
}

// reroute moves pending frames of a broken routed relay, whose node its
// give-up has just marked down, to the next live member of each frame's
// stream. From the first frame with no live member left, it returns the
// frames to keep on the broken relay, whose waiters then get the error.
func (c *Cluster) reroute(from *relay, frames []*sender.Item) ([]*sender.Item, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return frames, fmt.Errorf("cluster: closed")
	}
	c.rerouteGen++ // frames move: waiters must re-snapshot the relays
	for i, rf := range frames {
		target, ok := c.firstLiveLocked(c.cfg.Ring.Members(rf.Stream))
		if !ok {
			return frames[i:], fmt.Errorf("cluster: no live member for stream %q", rf.Stream)
		}
		c.relayLocked(target, from.session, false).Send(*rf) //nolint:errcheck // a stopped channel fails its waiters
	}
	return nil, nil
}

// Close stops every relay. Pending frames are abandoned (their clients'
// connections will error and replay elsewhere).
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	rs := make([]*relay, 0, len(c.relays))
	for _, r := range c.relays {
		rs = append(rs, r)
	}
	c.mu.Unlock()
	for _, r := range rs {
		r.Close(fmt.Errorf("cluster: relay to %s stopped", r.node.ID))
	}
}

// NodeRelayStats aggregates the relay channels toward one node.
type NodeRelayStats struct {
	Node     string `json:"node"`
	Channels int    `json:"channels"`
	Pending  uint64 `json:"pending"` // frames relayed, not yet acked by the target
	Relayed  uint64 `json:"relayed"` // frames acknowledged by the target
	// Dropped counts frames resolved without reaching the target: fan-out
	// frames a leaf channel gave up on after DownAfter, and frames the
	// channel could not encode (one that grew past wire.MaxFrameSize when
	// re-bound to the channel's stream ID), whose waiter got the error.
	Dropped uint64 `json:"dropped"`
	Down    bool   `json:"down"`
}

// Stats snapshots the relay layer, aggregated per target node and sorted
// by node ID.
func (c *Cluster) Stats() []NodeRelayStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := make(map[string]*NodeRelayStats)
	node := func(id string) *NodeRelayStats {
		if agg[id] == nil {
			agg[id] = &NodeRelayStats{Node: id}
		}
		return agg[id]
	}
	for k, r := range c.relays {
		s := node(k.node)
		pending, relayed, refused := r.Stats()
		s.Channels++
		s.Pending += pending
		s.Relayed += relayed
		s.Dropped += r.dropped.Load() + refused
	}
	now := time.Now()
	for id, until := range c.downUntil {
		if now.Before(until) {
			node(id).Down = true
		}
	}
	out := make([]NodeRelayStats, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
