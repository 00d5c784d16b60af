// Package hsqclient is the batching client SDK for hsqd's binary ingest
// listener (hsqd -ingest-addr). It turns per-element Observe calls into
// stream-multiplexed, delta-compressed wire frames (internal/wire),
// amortizing one network round trip over thousands of elements:
//
//	c, err := hsqclient.Dial("localhost:9090")
//	defer c.Close()
//	lat := c.Stream("api.latency")
//	for _, v := range samples {
//		lat.Observe(v)
//	}
//	lat.EndStep()
//	err = c.Flush() // block until the server has applied everything
//
// # Batching
//
// Observe appends to an in-memory buffer per stream; a buffer is sealed
// into a wire frame when it reaches the batch size (WithBatchSize) or at
// the flush interval (WithFlushInterval), whichever comes first — so
// high-rate producers pay ~zero per-element overhead and trickling
// producers still see their data arrive promptly. A background goroutine
// owns the connection; Observe never waits on the network while the
// client is under its buffering limits.
//
// # Backpressure
//
// The server grants a credit window: at most W sequenced frames may be in
// flight (written, not yet confirmed). When the server stalls — typically
// an EndStep running its level-0 write and the merges it makes due on a
// slow device — confirmations stop, the window fills, the client's frame
// queue backs up, and Observe blocks. Producer speed is thereby coupled to warehouse
// speed with bounded memory at every hop.
//
// # Reconnection and delivery guarantees
//
// Delivery is confirmed by the Ping barrier: the server answers a Ping only
// after applying (on a cluster node: and relaying) every frame written
// before it, and the client pings after a burst of frames whenever no
// earlier Ping is outstanding. Flush waits until every frame sealed before
// the call is confirmed.
//
// On a broken connection the client redials (capped, jittered exponential
// backoff) and resumes its session: the server's Welcome frame reports, per
// stream, the highest frame sequence it has applied; the client replays the
// frames above it and counts those at or below it delivered at the new
// connection's first Pong, which a cluster node sends only once it has
// relayed them too. Sequenced frames
// (batches, end-of-steps) are therefore applied exactly once and in order
// per server process, even across reconnects. Elements still in a stream's
// unsealed buffer are never lost either: they simply have not been sent
// yet. Only a client process crash loses buffered data, and a server
// restart loses its sessions (the replay then starts a fresh session; see
// the "Durability" section of the hsq docs for what a restarted server
// remembers).
package hsqclient

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/sender"
	"repro/internal/wire"
)

// ErrClosed is returned by every method after Close.
var ErrClosed = errors.New("hsqclient: closed")

// ServerError is a terminal error frame from the server (protocol
// mismatch, stream apply failure). It poisons the client: every later
// call returns it, because the server has rejected the session's frame
// stream and silently resuming could drop or double-apply data.
type ServerError struct {
	Code    uint64
	Message string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("hsqclient: server error %d: %s", e.Code, e.Message)
}

// options are Dial's: the client's own batching, and the sender policy the
// rest of them set.
type options struct {
	batchSize     int
	flushInterval time.Duration
	sender.Config
}

// Option customizes Dial.
type Option func(*options)

// WithBatchSize sets how many buffered elements seal a batch frame
// (default 2048).
func WithBatchSize(n int) Option { return func(o *options) { o.batchSize = n } }

// WithFlushInterval sets how long a partial batch may sit in the buffer
// before being sealed and sent anyway (default 50ms).
func WithFlushInterval(d time.Duration) Option { return func(o *options) { o.flushInterval = d } }

// WithMaxQueuedFrames bounds the client-side frame queue; Observe blocks
// when it is full (default 256 frames).
func WithMaxQueuedFrames(n int) Option { return func(o *options) { o.MaxQueue = n } }

// WithDialTimeout bounds each dial attempt (default 5s).
func WithDialTimeout(d time.Duration) Option { return func(o *options) { o.DialTimeout = d } }

// WithReconnectBackoff sets the reconnect backoff range (default
// 20ms–2s, doubling).
func WithReconnectBackoff(min, max time.Duration) Option {
	return func(o *options) { o.BackoffMin, o.BackoffMax = min, max }
}

// WithMaxReconnectAttempts gives up (poisoning the client) after n
// consecutive failed connection attempts; 0, the default, retries
// forever.
func WithMaxReconnectAttempts(n int) Option { return func(o *options) { o.MaxAttempts = n } }

// WithKeepalive sends a Ping frame whenever the connection has been idle
// for d, so servers running with an ingest idle timeout do not reap
// trickling producers (and dead connections are detected sooner). 0, the
// default, sends no pings.
func WithKeepalive(d time.Duration) Option { return func(o *options) { o.Keepalive = d } }

// WithSession fixes the session token instead of generating a random
// one. Two clients must never share a token.
func WithSession(s string) Option { return func(o *options) { o.Session = s } }

// WithLogf receives connection-lifecycle log lines (reconnects, fatal
// errors). Default: silent.
func WithLogf(f func(format string, args ...any)) Option { return func(o *options) { o.Logf = f } }

// Client is a connection to an hsqd ingest listener hosting any number of
// named streams. All methods are safe for concurrent use.
type Client struct {
	opts options
	snd  *sender.Sender // owns the connection, the queue and the replay set
	tick *time.Ticker

	mu      sync.Mutex
	streams map[string]*Stream
	nextSeq uint64
	closed  bool

	subMu     sync.Mutex
	subs      map[uint64]*Subscription
	nextSubID uint64
}

// Stream is a named stream handle. Handles are cheap and cached: every
// call to Client.Stream with the same name returns the same handle.
type Stream struct {
	c    *Client
	name string
	buf  []int64
}

// Dial connects to an hsqd ingest listener. The initial connection and
// handshake are synchronous — a bad address or incompatible server fails
// here, not on the first Observe. Later disconnects are handled
// transparently (see the package comment).
//
// addr may be a comma-separated list of addresses (the nodes of an hsqd
// cluster): the client connects to the first reachable one and, when a
// connection dies, fails over to the next — replaying unconfirmed frames
// so the cluster's session replay state resumes the stream without loss
// or duplication.
func Dial(addr string, opts ...Option) (*Client, error) {
	o := options{batchSize: 2048, flushInterval: 50 * time.Millisecond, Config: sender.Config{
		MaxQueue: 256, DialTimeout: 5 * time.Second, BackoffMin: 20 * time.Millisecond, BackoffMax: 2 * time.Second,
		Logf: func(string, ...any) {},
	}}
	for _, opt := range opts {
		opt(&o)
	}
	if o.Session == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("hsqclient: session token: %w", err)
		}
		o.Session = hex.EncodeToString(b[:])
	}
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			o.Addrs = append(o.Addrs, a)
		}
	}
	if len(o.Addrs) == 0 {
		return nil, errors.New("hsqclient: no addresses")
	}
	c := &Client{opts: o, streams: make(map[string]*Stream), subs: make(map[uint64]*Subscription)}
	o.Connected, o.OnError, o.OnFrame = c.resubscribe, c.serverError, c.dispatchPush
	snd, err := sender.Dial(o.Config)
	if err != nil {
		return nil, fmt.Errorf("hsqclient: %w", err)
	}
	c.snd = snd
	c.tick = time.NewTicker(o.flushInterval)
	go c.tickLoop()
	return c, nil
}

// serverError is the sender's policy for an Error frame: a server shutting
// down is left for its successor, anything else poisons the client.
func (c *Client) serverError(f *wire.Frame) error {
	if f.Code == wire.ErrCodeShutdown {
		c.opts.Logf("hsqclient: server shutting down, will reconnect")
		return nil
	}
	return &ServerError{Code: f.Code, Message: f.Message}
}

// Session returns the client's session token (useful for tests and for
// correlating client and server stats).
func (c *Client) Session() string { return c.opts.Session }

// Stream returns the handle for a named stream, registering it with the
// server on first use.
func (c *Client) Stream(name string) *Stream {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.streams[name]; ok {
		return s
	}
	s := &Stream{c: c, name: name}
	c.streams[name] = s
	c.snd.Send(sender.Item{Stream: name}) //nolint:errcheck // a stopped client reports it on the next call
	return s
}

// Observe buffers one element. It blocks only when the client's buffering
// limits are reached (queue full — typically the server exerting
// backpressure).
func (s *Stream) Observe(v int64) error { return s.ObserveSlice([]int64{v}) }

// ObserveSlice buffers a slice of elements under one lock acquisition.
func (s *Stream) ObserveSlice(vs []int64) error {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.errLocked(); err != nil {
		return err
	}
	s.buf = append(s.buf, vs...)
	if len(s.buf) >= c.opts.batchSize {
		return c.snd.Send(c.sealLocked(s)...)
	}
	return nil
}

// EndStep seals the stream's buffer and enqueues an end-of-step marker:
// the server runs the stream's EndStep after applying everything observed
// so far. Asynchronous — use Flush to wait for the confirmation.
func (s *Stream) EndStep() error {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.errLocked(); err != nil {
		return err
	}
	items := c.sealLocked(s)
	c.nextSeq++
	return c.snd.Send(append(items, sender.Item{Stream: s.name, F: &wire.Frame{Type: wire.TypeEndStep, Seq: c.nextSeq}})...)
}

// Flush seals this stream's buffer and blocks until the server has
// confirmed every frame enqueued so far (all streams share the
// connection's frame sequence, so this is a connection-wide barrier).
func (s *Stream) Flush() error { return s.c.Flush() }

// Name returns the stream's name.
func (s *Stream) Name() string { return s.name }

// Flush seals every stream's buffer and blocks until the server has
// applied and confirmed every frame enqueued so far. While the server is
// unreachable Flush waits through the reconnect loop — indefinitely under
// the default unlimited-retry policy; bound the wait with
// WithMaxReconnectAttempts or use FlushCtx.
func (c *Client) Flush() error { return c.FlushCtx(context.Background()) }

// FlushCtx is Flush with a deadline: it returns ctx.Err() if the
// confirmations do not arrive in time. The frames stay queued — a
// timed-out flush abandons the wait, not the data.
func (c *Client) FlushCtx(ctx context.Context) error {
	c.mu.Lock()
	last, err := c.sealAllLocked()
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return c.snd.Wait(ctx, last)
}

// Close flushes all buffered data, waits for the server's confirmations,
// and releases the connection. Always releases resources, even when the
// flush fails; the flush error is returned. Like Flush, the drain waits
// through reconnects — a producer that must bound its shutdown against a
// server that may never return should call FlushCtx first (or set
// WithMaxReconnectAttempts) and Close after.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	last, err := c.sealAllLocked()
	c.closed = true
	c.mu.Unlock()
	if err == nil {
		err = c.snd.Wait(context.Background(), last)
	}
	c.tick.Stop()
	c.snd.Close(ErrClosed)
	c.closeSubs()
	return err
}

// errLocked reports the terminal state, if any.
func (c *Client) errLocked() error {
	if c.closed {
		return ErrClosed
	}
	return c.snd.Err()
}

// sealAllLocked queues every stream's buffer and returns the newest
// sequence number.
func (c *Client) sealAllLocked() (uint64, error) {
	if err := c.errLocked(); err != nil {
		return 0, err
	}
	var items []sender.Item
	for _, s := range c.streams {
		items = append(items, c.sealLocked(s)...)
	}
	return c.nextSeq, c.snd.Send(items...)
}

// sealLocked cuts s's buffer into sequenced batch frames. Each caller hands
// what it seals to one Send, which waits while the queue is full: holding
// c.mu meanwhile keeps every stream's frames queued in sequence order, and
// one Send is one burst for the connection.
func (c *Client) sealLocked(s *Stream) []sender.Item {
	if len(s.buf) == 0 {
		return nil
	}
	var items []sender.Item
	for _, chunk := range wire.SplitBatch(s.buf) {
		c.nextSeq++
		items = append(items, sender.Item{Stream: s.name, F: &wire.Frame{Type: wire.TypeBatch, Seq: c.nextSeq, Values: slices.Clone(chunk)}})
	}
	s.buf = s.buf[:0]
	return items
}

// tickLoop seals partial buffers at the flush interval so trickling
// producers still see their data arrive, and ends the subscriptions once
// the sender has stopped.
func (c *Client) tickLoop() {
	for {
		select {
		case <-c.tick.C:
		case <-c.snd.Done():
			c.closeSubs()
			return
		}
		// Skip a tick the queue is full for: the buffers keep growing until
		// the batch size forces a seal that waits.
		c.mu.Lock()
		if c.errLocked() == nil && c.snd.Room() {
			c.sealAllLocked() //nolint:errcheck // a stopped sender reports on the next call
		}
		c.mu.Unlock()
	}
}
