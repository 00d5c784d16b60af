package cluster

import (
	"sync/atomic"
	"time"

	"repro/internal/sender"
	"repro/internal/wire"
)

// relay is one relay channel: a sender forwarding sequenced frames to one
// node under the ORIGINAL client session token and sequence numbers, so the
// target's per-(session, stream) replay dedup applies across every path a
// frame can take through the cluster. Frames for a single stream arrive in
// ascending sequence order (the ingest conn is serial); frames across
// streams may interleave arbitrarily after rerouting.
type relay struct {
	*sender.Sender
	c       *Cluster
	node    Node
	session string
	leaf    bool
	dropped atomic.Uint64 // frames a leaf channel gave up on
}

func newRelay(c *Cluster, node Node, session string, leaf bool) *relay {
	r := &relay{c: c, node: node, session: session, leaf: leaf}
	flags := uint64(wire.HelloFlagRelay)
	if leaf {
		flags = wire.HelloFlagLeaf
	}
	r.Sender = sender.New(sender.Config{
		Addrs: []string{node.Addr}, Session: session, Flags: flags, DialTimeout: c.cfg.DialTimeout,
		BackoffMin: 20 * time.Millisecond, BackoffMax: 500 * time.Millisecond,
		DownAfter: c.cfg.DownAfter, GiveUp: r.giveUp,
		// A handshake with the node clears its down mark; the channel has no
		// frames of its own to write first.
		Connected: func() []*wire.Frame { c.nodeUp(node); return nil },
	})
	return r
}

// giveUp is the channel's policy once its target has been unreachable for
// DownAfter: mark the node down; a leaf channel then drops its pending
// frames (counted — the data is applied on this node and acked upstream
// only because every other path was also resolved), a routed channel hands
// them to the next live member of each frame's stream and keeps, failing
// their waiters, those that have none.
func (r *relay) giveUp(err error, pending []*sender.Item) ([]*sender.Item, error) {
	r.c.cfg.Logf("cluster: relay %s→%s (session %s): giving up: %v", r.c.self.ID, r.node.ID, r.session, err)
	r.c.nodeDown(r.node)
	if r.leaf {
		r.dropped.Add(uint64(len(pending)))
		return nil, nil
	}
	return r.c.reroute(r, pending)
}
