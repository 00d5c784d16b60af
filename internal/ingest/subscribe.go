package ingest

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/query"
	"repro/internal/wire"
)

// Continuous queries: a client registers a query plan with a Subscribe
// frame and the server pushes re-evaluated results whenever a stream the
// plan selects finishes a time step. The server is the only side that
// knows when steps end, so pushing from here replaces the client polling
// N streams with one standing plan evaluated over merged summaries.
//
// Delivery model:
//
//   - Evaluation is debounced (Config.PushDebounce): a burst of EndSteps
//     across many selected streams coalesces into one push carrying the
//     state after the burst. Subscribers see the latest state, not every
//     intermediate one.
//   - The Subscribe frame's Credit field bounds how many pushes the
//     server will send before the client renews (re-Subscribe with the
//     same subscription ID); 0 means unbounded. A subscription out of
//     credit stays registered and dirty, and the next renewal triggers a
//     fresh push — slow consumers bound server work instead of queueing.
//   - An invalid plan is refused with a Push frame carrying ErrCodePlan
//     for that subscription ID; the connection stays healthy. Later
//     evaluation errors (e.g. a selected stream dropped mid-flight) are
//     delivered the same way and the subscription stays registered.

// DefaultPushDebounce is the settle window between an EndStep and the
// push it triggers, coalescing multi-stream ingest bursts into one
// evaluation. Config.PushDebounce overrides it; negative disables.
const DefaultPushDebounce = 25 * time.Millisecond

// subscription is one standing continuous query on a connection.
// Fields are guarded by the conn's subMu except plan, which is
// immutable after registration.
type subscription struct {
	id     uint64
	plan   *query.Plan
	credit uint64 // pushes allowed until renewal; 0 = unbounded
	sent   uint64 // pushes since registration/renewal
	seq    uint64 // per-subscription push counter, first push is 1
	dirty  bool   // a selected stream ended a step since the last push
}

// subscribe registers or renews a continuous query from a Subscribe
// frame. Plan errors are answered with a Push nack for the subscription
// ID and do not fail the connection; the returned error is reserved for
// transport failures.
func (s *Server) subscribe(c *conn, f *wire.Frame) error {
	plan, err := query.ParsePlan(f.Data)
	if err != nil {
		s.errCount.Add(1)
		return s.push(c, &wire.Frame{
			Type:     wire.TypePush,
			StreamID: f.StreamID,
			Code:     wire.ErrCodePlan,
			Message:  err.Error(),
		})
	}
	c.subMu.Lock()
	if c.subs == nil {
		c.subs = make(map[uint64]*subscription)
	}
	sub, ok := c.subs[f.StreamID]
	if !ok {
		sub = &subscription{id: f.StreamID}
		c.subs[f.StreamID] = sub
		s.subscribes.Add(1)
	}
	// A renewal replaces the plan and resets the credit budget; the push
	// sequence keeps counting so the client can spot the renewal boundary.
	sub.plan = plan
	sub.credit = f.Credit
	sub.sent = 0
	sub.dirty = true // always push a fresh result on (re-)subscribe
	if !c.pusher {
		c.pusher = true
		s.wg.Add(1)
		go s.pushLoop(c)
	}
	c.subMu.Unlock()
	c.wakePusher()
	return nil
}

// unsubscribe drops a standing query. Unknown IDs are ignored — the
// client may race its Unsubscribe against a server restart.
func (s *Server) unsubscribe(c *conn, id uint64) {
	c.subMu.Lock()
	delete(c.subs, id)
	c.subMu.Unlock()
}

// notifySubscribers marks every subscription selecting stream dirty, on
// every connection, and wakes the pushers. Called after each applied
// EndStep, whichever door it came through (see Server.apply).
func (s *Server) notifySubscribers(stream string) {
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		woke := false
		c.subMu.Lock()
		for _, sub := range c.subs {
			if !sub.dirty && sub.plan.MatchesStream(stream) {
				sub.dirty = true
				woke = true
			}
		}
		c.subMu.Unlock()
		if woke {
			c.wakePusher()
		}
	}
}

// wakePusher nudges the connection's push loop; the 1-buffered channel
// coalesces concurrent wakes.
func (c *conn) wakePusher() {
	select {
	case c.subWake <- struct{}{}:
	default:
	}
}

// pushLoop is the per-connection push goroutine, started on the first
// Subscribe and exiting with the connection. Each wake is debounced,
// then every dirty subscription with credit is re-evaluated and pushed.
func (s *Server) pushLoop(c *conn) {
	defer s.wg.Done()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-c.subWake:
		}
		if s.pushDebounce > 0 {
			t := time.NewTimer(s.pushDebounce)
			select {
			case <-c.ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		// Drain a wake that raced the debounce window: the dirty marks it
		// announced are visible to the snapshot below, so it is spent.
		select {
		case <-c.subWake:
		default:
		}
		if err := s.pushDirty(c); err != nil {
			// The read loop will observe the same dead socket; just stop
			// pushing.
			c.cancel()
			return
		}
	}
}

// pushDirty evaluates and pushes every dirty subscription that has
// credit. Evaluation runs outside subMu — plans touch the DB and must
// not block Subscribe/Unsubscribe handling.
func (s *Server) pushDirty(c *conn) error {
	c.subMu.Lock()
	due := make([]*subscription, 0, len(c.subs))
	for _, sub := range c.subs {
		if sub.dirty && (sub.credit == 0 || sub.sent < sub.credit) {
			sub.dirty = false
			sub.sent++
			sub.seq++
			due = append(due, sub)
		}
	}
	c.subMu.Unlock()
	for _, sub := range due {
		f := &wire.Frame{Type: wire.TypePush, StreamID: sub.id, Seq: sub.seq}
		res, err := s.db.RunPlan(sub.plan)
		if err == nil {
			var data []byte
			if data, err = json.Marshal(res); err == nil && len(data) > wire.MaxFrameSize-64 {
				err = fmt.Errorf("result (%d bytes) exceeds frame limit; narrow the plan", len(data))
			} else if err == nil {
				f.Data = data
			}
		}
		if err != nil {
			f.Code = wire.ErrCodePlan
			f.Message = err.Error()
			f.Data = nil
		}
		if werr := s.push(c, f); werr != nil {
			return werr
		}
		s.pushes.Add(1)
	}
	return nil
}

// push writes one frame under the connection's write lock.
func (s *Server) push(c *conn, f *wire.Frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := c.w.WriteFrame(f); err != nil {
		return err
	}
	return c.w.Flush()
}
