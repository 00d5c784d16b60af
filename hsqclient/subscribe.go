package hsqclient

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/sender"
	"repro/internal/wire"
)

// defaultSubscribeCredit is the push budget granted per Subscribe frame;
// the client renews at half spend, so a healthy consumer never stalls on
// credit while an abandoned subscription stops costing the server work
// after at most this many pushes.
const defaultSubscribeCredit = 256

// PlanError is the server's rejection of a continuous-query plan (or of
// one evaluation of it). It is scoped to the subscription: the
// connection and the client's other subscriptions stay healthy.
type PlanError struct {
	Code    uint64
	Message string
}

func (e *PlanError) Error() string {
	return fmt.Sprintf("hsqclient: plan rejected: %s", e.Message)
}

// Update is one pushed re-evaluation of a continuous query.
type Update struct {
	// Seq is the per-subscription push counter, starting at 1. Gaps mean
	// intervening results were coalesced or the consumer lagged — the
	// carried result is always the newest.
	Seq uint64
	// Result is the JSON-encoded query result (the same shape POST
	// /query returns). Nil when Err is set.
	Result []byte
	// Err is set when one evaluation failed server-side (e.g. a selected
	// stream was dropped). The subscription stays live; later EndSteps
	// push again.
	Err error
}

// Subscription is a standing continuous query: the server re-evaluates
// the plan when a selected stream finishes a time step and pushes the
// result. Receive on Updates; stop with Unsubscribe.
type Subscription struct {
	c    *Client
	id   uint64
	plan []byte

	updates   chan Update
	ready     chan struct{} // closed on the first push (or nack)
	readyOnce sync.Once

	mu       sync.Mutex
	firstErr error
	received uint64 // pushes since the last Subscribe frame (credit renewal)
	closed   bool
}

// Subscribe registers a continuous query from its JSON plan (the same
// document POST /query accepts) and blocks until the server confirms it
// with the initial result push — or rejects the plan, which surfaces
// here as a *PlanError. The initial result is also delivered on
// Updates.
//
// Delivery is latest-state, not every-state: bursts of step completions
// are debounced server-side and a slow consumer observes coalesced
// updates (Update.Seq gaps). After a reconnect the client re-subscribes
// and the server pushes a fresh evaluation; pushes missed during the
// outage are not replayed.
//
// On a cluster the plan is evaluated by the node this client is connected
// to, over the streams that node stores: a plan naming a stream another
// shard owns is rejected as an unknown stream, although POST /query on the
// same node answers it. Connect to a member of every stream the plan names.
func (c *Client) Subscribe(ctx context.Context, planJSON []byte) (*Subscription, error) {
	c.mu.Lock()
	err := c.errLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.subMu.Lock()
	c.nextSubID++
	sub := &Subscription{
		c:       c,
		id:      c.nextSubID,
		plan:    append([]byte(nil), planJSON...),
		updates: make(chan Update, 1),
		ready:   make(chan struct{}),
	}
	// A plan too large for a frame fails here, before anything is sent.
	f := subscribeFrame(sub)
	if _, err = wire.AppendFrame(nil, f); err == nil {
		c.subs[sub.id] = sub
	}
	c.subMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("hsqclient: subscribe: %w", err)
	}
	c.snd.Send(sender.Item{F: f}) //nolint:errcheck // a stopped sender closes Done below

	select {
	case <-sub.ready:
	case <-ctx.Done():
		sub.Unsubscribe() //nolint:errcheck
		return nil, ctx.Err()
	case <-c.snd.Done():
		return nil, c.snd.Err()
	}
	sub.mu.Lock()
	err = sub.firstErr
	sub.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return sub, nil
}

// subscribeFrame builds the (un-sequenced) Subscribe frame for sub; also
// used to renew credit and to re-register after a reconnect.
func subscribeFrame(sub *Subscription) *wire.Frame {
	return &wire.Frame{
		Type:     wire.TypeSubscribe,
		StreamID: sub.id,
		Credit:   defaultSubscribeCredit,
		Data:     sub.plan,
	}
}

// Updates is the subscription's delivery channel. It is closed by
// Unsubscribe and when the client reaches a terminal state.
func (s *Subscription) Updates() <-chan Update { return s.updates }

// Unsubscribe deregisters the query and closes Updates. Idempotent.
func (s *Subscription) Unsubscribe() error {
	s.c.forget(s)
	s.c.snd.Send(sender.Item{F: &wire.Frame{Type: wire.TypeUnsubscribe, StreamID: s.id}}) //nolint:errcheck // a stopped client's server has dropped the subscription already
	s.close(nil)
	return nil
}

// forget drops s from the set re-subscribed on every new connection.
func (c *Client) forget(s *Subscription) {
	c.subMu.Lock()
	delete(c.subs, s.id)
	c.subMu.Unlock()
}

// close marks the subscription finished and closes Updates exactly once.
func (s *Subscription) close(firstErr error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if firstErr != nil {
		s.firstErr = firstErr
	}
	s.mu.Unlock()
	close(s.updates)
	s.readyOnce.Do(func() { close(s.ready) })
}

// deliver routes one Push frame to the subscription. renew reports that
// the client should send a credit-renewing Subscribe frame.
func (s *Subscription) deliver(f *wire.Frame) (renew bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	first := false
	select {
	case <-s.ready:
	default:
		first = true
	}
	if f.Code != 0 && first {
		// Plan rejected before any result: fail the pending Subscribe.
		s.mu.Unlock()
		s.c.forget(s)
		s.close(&PlanError{Code: f.Code, Message: f.Message})
		return false
	}
	s.received++
	renew = s.received >= defaultSubscribeCredit/2
	if renew {
		s.received = 0
	}
	u := Update{Seq: f.Seq}
	if f.Code != 0 {
		u.Err = &PlanError{Code: f.Code, Message: f.Message}
	} else {
		u.Result = append([]byte(nil), f.Data...)
	}
	// Latest-state delivery: displace a stale undelivered update rather
	// than blocking the read loop on a slow consumer.
	select {
	case s.updates <- u:
	default:
		select {
		case <-s.updates:
		default:
		}
		select {
		case s.updates <- u:
		default:
		}
	}
	s.mu.Unlock()
	s.readyOnce.Do(func() { close(s.ready) })
	return renew
}

// closeSubs tears down every live subscription when the client reaches a
// terminal state, so consumers ranging over Updates unblock.
func (c *Client) closeSubs() {
	c.subMu.Lock()
	subs := make([]*Subscription, 0, len(c.subs))
	for _, sub := range c.subs {
		subs = append(subs, sub)
	}
	clear(c.subs)
	c.subMu.Unlock()
	for _, sub := range subs {
		sub.close(ErrClosed)
	}
}

// resubscribe is the sender's Connected: every continuous query is
// re-registered on a new connection with fresh credit, because the new
// server has no subscription state. The re-Subscribe triggers a fresh
// push; results missed during the outage are not replayed — subscribers
// get latest state, not history.
func (c *Client) resubscribe() []*wire.Frame {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	var fs []*wire.Frame
	for _, sub := range c.subs {
		sub.mu.Lock()
		sub.received = 0
		sub.mu.Unlock()
		fs = append(fs, subscribeFrame(sub))
	}
	return fs
}

// dispatchPush routes a Push frame from the sender to its subscription,
// enqueueing a credit renewal when the budget runs low. Unknown
// subscription IDs are ignored (a push can race Unsubscribe), and so are
// other frame types — newer servers may add informational frames.
func (c *Client) dispatchPush(f *wire.Frame) {
	if f.Type != wire.TypePush {
		return
	}
	c.subMu.Lock()
	sub := c.subs[f.StreamID]
	c.subMu.Unlock()
	if sub == nil || !sub.deliver(f) {
		return
	}
	c.subMu.Lock()
	live := c.subs[sub.id] == sub
	c.subMu.Unlock()
	if live {
		c.snd.Send(sender.Item{F: subscribeFrame(sub)}) //nolint:errcheck // a stopped sender ends the subscription anyway
	}
}
