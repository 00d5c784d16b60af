package cluster

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// Summary is a coordinator's read of a stream this node does not store: the
// shard summary its first member to answer serves now, under the dial
// timeout. Nothing is kept between calls. A nil summary means that member
// holds no data for the stream; the error is the last member's.
func (c *Cluster) Summary(ctx context.Context, stream string) (sum *core.ShardSummary, err error) {
	for _, n := range c.cfg.Ring.Members(stream) {
		if sum, err = FetchSummary(ctx, c.cfg.DialTimeout, n, stream); err == nil {
			return sum, nil
		}
	}
	return nil, err
}

// FetchSummary dials node and retrieves its current shard summary for
// stream over one short-lived wire connection: Hello (leaf, so the peer
// never adopts or fans anything), SummaryReq, SummaryResp. A peer that
// does not know the stream returns an empty summary (nil, nil here), which
// merges as zero.
func FetchSummary(ctx context.Context, dialTimeout time.Duration, node Node, stream string) (*core.ShardSummary, error) {
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", node.Addr)
	if err != nil {
		return nil, fmt.Errorf("summary dial %s (%s): %w", node.ID, node.Addr, err)
	}
	defer nc.Close() //nolint:errcheck
	if dl, ok := ctx.Deadline(); ok {
		nc.SetDeadline(dl) //nolint:errcheck
	} else {
		nc.SetDeadline(time.Now().Add(dialTimeout)) //nolint:errcheck
	}
	w := wire.NewWriter(nc)
	if err := w.WriteFrame(&wire.Frame{Type: wire.TypeHello, Version: wire.Version, Session: "peer:" + node.ID, Flags: wire.HelloFlagLeaf}); err != nil {
		return nil, err
	}
	if err := w.WriteFrame(&wire.Frame{Type: wire.TypeSummaryReq, Seq: 1, Name: stream}); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	rd := wire.NewReader(nc)
	for {
		f, err := rd.ReadFrame()
		if err != nil {
			return nil, fmt.Errorf("summary fetch %s: %w", node.ID, err)
		}
		switch f.Type {
		case wire.TypeWelcome:
			continue
		case wire.TypeSummaryResp:
			if f.Code != 0 {
				return nil, fmt.Errorf("summary fetch %s: server error %d: %s", node.ID, f.Code, f.Message)
			}
			if len(f.Data) == 0 {
				return nil, nil // peer has no data for this stream
			}
			return core.DecodeShardSummary(f.Data)
		case wire.TypeError:
			return nil, fmt.Errorf("summary fetch %s: server error %d: %s", node.ID, f.Code, f.Message)
		default:
			return nil, fmt.Errorf("summary fetch %s: unexpected %s frame", node.ID, wire.TypeName(f.Type))
		}
	}
}
