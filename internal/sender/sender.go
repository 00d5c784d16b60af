// Package sender is the one ingest sender. hsqclient and the cluster's relay
// channels enqueue frames into it and pass their policy in a Config; it owns
// the connection: dial (rotating through the addresses), Hello under the
// session token, the Welcome prune, connection-local stream IDs, writes
// within the credit window, replay of what was not confirmed on the next
// connection, and jittered backoff.
//
// Delivery is confirmed by the Ping barrier, the protocol's only
// confirmation: the server handles a connection's frames in order and
// answers a Ping only once everything before it, and everything its Welcome
// reported applied, is applied (and, on a cluster node, relayed). So the
// frames a Welcome prunes join the flight unwritten and resolve at the
// connection's first Pong, like the frames written there.
package sender

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Config is a caller's policy; a zero field turns its behaviour off.
type Config struct {
	Addrs                  []string // tried in turn
	Session                string
	Flags                  uint64        // the Hello's
	DialTimeout            time.Duration // bounds each dial and handshake
	BackoffMin, BackoffMax time.Duration
	MaxAttempts            int           // consecutive failed dials before the sender fails for good
	MaxQueue               int           // Send waits while this many frames are unwritten
	Keepalive              time.Duration // Ping a connection idle this long
	// GiveUp runs once the sender has failed for DownAfter without a
	// confirmation, and then at each further failure until one. It gets
	// every pending frame and returns those to keep trying, with the error
	// Wait reports while they are pending; the rest are resolved.
	DownAfter time.Duration
	GiveUp    func(err error, pending []*Item) (keep []*Item, failed error)
	// Connected runs after every handshake and returns the unsequenced
	// frames to write first on the new connection.
	Connected func() []*wire.Frame
	OnError   func(f *wire.Frame) error // an Error frame: nil reconnects, an error is terminal
	OnFrame   func(f *wire.Frame)       // server frames the sender does not consume
	Logf      func(format string, args ...any)
}

// Item is one frame to send. A sequenced frame names its Stream, which the
// sender binds to a connection-local ID; an Item with a Stream and no F
// only binds.
type Item struct {
	Stream  string
	F       *wire.Frame
	barrier uint64 // nonce of the first Ping written after it, 0 until then
}

func (it *Item) sequenced() bool { return it.F != nil && it.F.Sequenced() }

// Sender delivers frames over one session; safe for concurrent use.
type Sender struct {
	cfg        Config
	persistent bool // keep a connection with nothing to send
	ctx        context.Context
	cancel     context.CancelFunc
	done       chan struct{}
	addr       int // next address to dial

	mu             sync.Mutex
	cond           *sync.Cond
	queue          []*Item // unwritten on the current connection
	inflight       []*Item // sequenced, written or pruned by the Welcome, awaiting a Pong
	nc             net.Conn
	credit         int
	pinged, ponged uint64 // the connection's newest Ping and Pong nonces
	wantPing       bool   // a keepalive is due
	attempts       int
	since          time.Time // first failure since the last confirmation
	backoff        time.Duration
	down           bool             // given up, and nothing confirmed since
	refused        map[uint64]error // sequenced frames the encoder refused, until a Wait reports them
	confirmed      uint64
	dropped        uint64
	failed         error                 // GiveUp's
	err            atomic.Pointer[error] // terminal; set under mu, read without it by every Observe
}

func newSender(cfg Config, persistent bool) *Sender {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Sender{cfg: cfg, persistent: persistent, ctx: ctx, cancel: cancel, done: make(chan struct{}),
		credit: 1, backoff: cfg.BackoffMin, refused: make(map[uint64]error)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Dial connects now, failing if that attempt fails, and keeps a connection
// up until Close: a producer's connection carries pushes and keepalives.
func Dial(cfg Config) (*Sender, error) {
	s := newSender(cfg, true)
	nc, r, err := s.connect()
	if err != nil {
		s.cancel()
		return nil, err
	}
	go s.run(nc, r)
	return s, nil
}

// New returns a Sender that connects whenever it has frames to deliver.
func New(cfg Config) *Sender {
	s := newSender(cfg, false)
	go s.run(nil, nil)
	return s
}

// Send queues items in order. Carrying a sequenced frame, it waits while
// the queue is full; it returns the terminal error once there is one.
func (s *Sender) Send(items ...Item) error {
	sequenced := slices.ContainsFunc(items, func(it Item) bool { return it.sequenced() })
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.Err() == nil && sequenced && !s.roomLocked() {
		s.cond.Wait()
	}
	if err := s.Err(); err != nil {
		return err
	}
	for _, it := range items {
		s.queue = append(s.queue, &it)
	}
	s.cond.Broadcast()
	return nil
}

// Room reports whether Send would queue a sequenced frame without waiting.
func (s *Sender) Room() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.roomLocked()
}

func (s *Sender) roomLocked() bool { return s.cfg.MaxQueue <= 0 || len(s.queue) < s.cfg.MaxQueue }

// Wait blocks until every sequenced frame with a sequence number ≤ seq is
// resolved: confirmed, given up or refused by the encoder — the first Wait
// covering a refused frame returns its error. It returns early with the
// terminal error, GiveUp's while frames it kept are pending, or ctx's.
func (s *Sender) Wait(ctx context.Context, seq uint64) error {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	covered := func(it *Item) bool { return it.sequenced() && it.F.Seq <= seq }
	s.mu.Lock()
	defer s.mu.Unlock()
	for slices.ContainsFunc(s.inflight, covered) || slices.ContainsFunc(s.queue, covered) {
		if err := s.Err(); err != nil {
			return err
		}
		if s.failed != nil {
			return s.failed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		s.cond.Wait()
	}
	for q, err := range s.refused {
		if q <= seq {
			delete(s.refused, q)
			return err
		}
	}
	return nil
}

// Stats reports frames pending, confirmed, and refused by the encoder.
func (s *Sender) Stats() (pending, confirmed, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(len(s.queue) + len(s.inflight)), s.confirmed, s.dropped
}

// Err returns the terminal error, if any.
func (s *Sender) Err() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Done is closed once the sender has stopped.
func (s *Sender) Done() <-chan struct{} { return s.done }

// Close stops the sender and waits for it. Waiters on abandoned frames get
// reason, or the terminal error the sender already had.
func (s *Sender) Close(reason error) {
	s.stop(reason)
	<-s.done
}

func (s *Sender) stop(err error) {
	s.mu.Lock()
	s.err.CompareAndSwap(nil, &err)
	if s.nc != nil {
		s.nc.Close() //nolint:errcheck
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancel()
}

// run connects, serves the connection until it dies, and repeats; nc is
// the connection Dial made.
func (s *Sender) run(nc net.Conn, r *wire.Reader) {
	defer close(s.done)
	for {
		var err error
		if nc == nil {
			s.mu.Lock()
			for s.Err() == nil && !s.persistent && len(s.queue) == 0 {
				s.since = time.Time{} // the give-up clock runs only with work
				s.cond.Wait()
			}
			s.mu.Unlock()
			if nc, r, err = s.connect(); err != nil {
				if !s.fail(err, true) {
					return
				}
				continue
			}
		}
		err = s.serve(nc, r)
		nc = nil
		if err != errRoll && !s.fail(err, false) {
			return
		}
	}
}

// fail records a failed attempt or a lost connection, applies the attempt
// budget and the give-up policy, and backs off. It reports whether to go on.
func (s *Sender) fail(err error, attempt bool) bool {
	if s.Err() != nil {
		return false
	}
	s.mu.Lock()
	if attempt {
		s.attempts++
	}
	if s.since.IsZero() {
		s.since = time.Now()
	}
	attempts, left := s.attempts, s.cfg.DownAfter-time.Since(s.since)
	if s.down {
		left = 0 // one DownAfter per outage, not one per frame
	}
	// Full jitter: senders that lost one node must not redial in lockstep.
	delay := s.backoff/2 + time.Duration(mrand.Int64N(int64(s.backoff/2)+1))
	s.backoff = min(2*s.backoff, s.cfg.BackoffMax)
	s.mu.Unlock()
	if s.cfg.MaxAttempts > 0 && attempts >= s.cfg.MaxAttempts {
		s.stop(fmt.Errorf("giving up after %d connection attempts: %w", attempts, err))
		return false
	}
	s.cfg.Logf("sender: session %s: %v", s.cfg.Session, err)
	if s.cfg.GiveUp != nil {
		if left <= 0 {
			s.giveUp(err)
		} else {
			delay = min(delay, left)
		}
	}
	select {
	case <-time.After(delay):
		return true
	case <-s.ctx.Done():
		return false
	}
}

// giveUp hands the pending frames to GiveUp. They stay queued while it
// runs, so no waiter sees them resolved before they are placed.
func (s *Sender) giveUp(err error) {
	s.mu.Lock()
	pending := slices.Clip(s.queue) // nothing is in flight between connections
	s.mu.Unlock()
	keep, failed := s.cfg.GiveUp(err, pending)
	s.mu.Lock()
	s.queue = append(slices.Clip(keep), s.queue[len(pending):]...)
	s.failed, s.since, s.backoff, s.down = failed, time.Time{}, s.cfg.BackoffMin, true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// connect dials the next address, sends Hello and reads the Welcome, under
// the dial timeout; a Welcome of another protocol version is terminal. On
// success the queue is headed by the Connected frames, and what the
// Welcome's marks report applied moves to the flight: the first Pong
// confirms it.
func (s *Sender) connect() (net.Conn, *wire.Reader, error) {
	addr := s.cfg.Addrs[s.addr%len(s.cfg.Addrs)]
	nc, err := (&net.Dialer{Timeout: s.cfg.DialTimeout}).DialContext(s.ctx, "tcp", addr)
	if err != nil {
		s.addr++
		return nil, nil, fmt.Errorf("connect %s: %w", addr, err)
	}
	defer context.AfterFunc(s.ctx, func() { nc.Close() })() //nolint:errcheck // Close interrupts the handshake
	nc.SetDeadline(time.Now().Add(s.cfg.DialTimeout))       //nolint:errcheck
	r := wire.NewReader(nc)
	var w *wire.Frame
	hello, err := wire.AppendFrame(nil, &wire.Frame{Type: wire.TypeHello, Version: wire.Version, Session: s.cfg.Session, Flags: s.cfg.Flags})
	if err == nil {
		if _, err = nc.Write(hello); err == nil {
			w, err = r.ReadFrame()
		}
	}
	switch {
	case err != nil:
	case w.Type == wire.TypeError:
		err = s.serverError(w)
	case w.Type != wire.TypeWelcome:
		err = fmt.Errorf("unexpected %s frame", wire.TypeName(w.Type))
	case w.Version != wire.Version:
		err = fmt.Errorf("server speaks protocol version %d, need %d", w.Version, wire.Version)
		s.stop(err)
	}
	if err != nil {
		nc.Close() //nolint:errcheck
		s.addr++
		return nil, nil, fmt.Errorf("connect %s: %w", addr, err)
	}
	nc.SetDeadline(time.Time{}) //nolint:errcheck
	marks := make(map[string]uint64, len(w.StreamSeqs))
	for _, ss := range w.StreamSeqs {
		marks[ss.Name] = ss.Seq
	}
	var first []*wire.Frame
	if s.cfg.Connected != nil {
		first = s.cfg.Connected()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.Err(); err != nil {
		nc.Close() //nolint:errcheck
		return nil, nil, err
	}
	q := make([]*Item, 0, len(first)+len(s.queue))
	for _, f := range first {
		q = append(q, &Item{F: f})
	}
	for _, it := range s.queue {
		if it.sequenced() && it.F.Seq <= marks[it.Stream] {
			s.inflight = append(s.inflight, it)
		} else {
			q = append(q, it)
		}
	}
	s.queue, s.credit, s.nc, s.pinged, s.ponged = q, max(int(w.Credit), 1), nc, 0, 0
	s.attempts, s.backoff, s.failed = 0, s.cfg.BackoffMin, nil
	s.cond.Broadcast()
	s.cfg.Logf("sender: session %s connected to %s", s.cfg.Session, addr)
	return nc, r, nil
}

// serverError applies OnError to an Error frame.
func (s *Sender) serverError(f *wire.Frame) error {
	if s.cfg.OnError != nil {
		if err := s.cfg.OnError(f); err != nil {
			s.stop(err)
			return err
		}
	}
	return fmt.Errorf("server error %d: %s", f.Code, f.Message)
}

// serve runs the live connection, a reader goroutine resolving barriers
// while this one writes, until either side fails; then what is unconfirmed
// goes back to the head of the queue.
func (s *Sender) serve(nc net.Conn, r *wire.Reader) error {
	rerr := make(chan error, 1)
	go func() {
		defer s.drop(nc)
		rerr <- s.read(r)
	}()
	err := s.write(nc)
	s.drop(nc)
	if rerr := <-rerr; rerr != nil && err != errRoll {
		err = rerr
	}
	s.mu.Lock()
	for _, it := range s.inflight {
		it.barrier = 0
	}
	// A stream's pruned frames precede its others, so its order holds.
	s.queue = slices.Concat(s.inflight, s.queue)
	s.inflight = nil
	s.mu.Unlock()
	return err
}

// drop retires nc.
func (s *Sender) drop(nc net.Conn) {
	s.mu.Lock()
	if s.nc == nc {
		s.nc = nil
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	nc.Close() //nolint:errcheck
}

// read consumes the server's frames until the connection fails. A Pong
// confirms every frame its Ping covers.
func (s *Sender) read(r *wire.Reader) error {
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return err
		}
		switch f.Type {
		case wire.TypePong:
			s.mu.Lock()
			n := 0
			for n < len(s.inflight) && s.inflight[n].barrier != 0 && s.inflight[n].barrier <= f.Seq {
				n++
			}
			s.inflight = slices.Delete(s.inflight, 0, n)
			s.ponged = f.Seq
			s.confirmLocked(n)
			s.mu.Unlock()
		case wire.TypeError:
			return s.serverError(f)
		default:
			if s.cfg.OnFrame != nil {
				s.cfg.OnFrame(f)
			}
		}
	}
}

// confirmLocked counts n frames confirmed. Any confirmation restarts the
// give-up clock and the backoff, and ends an outage.
func (s *Sender) confirmLocked(n int) {
	s.confirmed += uint64(n)
	s.since, s.backoff, s.down = time.Time{}, s.cfg.BackoffMin, false
	s.cond.Broadcast()
}

// errRoll ends a full, confirmed connection (see write); run redials at once.
var errRoll = errors.New("connection binds wire.MaxConnStreams streams")

// write hands bursts to nc until it is retired: frames in order, at most a
// quarter of the credit window of them sequenced per burst, none beyond the
// window, each followed by the Ping pingDueLocked asks for — the first one
// at once when the Welcome pruned frames, with or without a burst. Once the
// connection binds wire.MaxConnStreams streams, the frames of those streams
// go ahead of any that would bind another, and a frame that would waits for
// the flight's confirmation, then ends the connection with errRoll: nothing
// is replayed. A bare binding (a stream's announcement, no frame) ends no
// connection on its own; it rides the next one. A write error sticks to bw;
// Flush reports it.
func (s *Sender) write(nc net.Conn) error {
	bw := bufio.NewWriterSize(nc, 64<<10)
	ids := make(map[string]uint64)
	unbound := func(it *Item) bool { return it.Stream != "" && ids[it.Stream] == 0 }
	bound := func(it *Item) bool { return it.Stream != "" && !unbound(it) }
	// full reports a queue head the connection cannot bind. Before it does,
	// the frames of streams bound here move to the front — a stable
	// partition, so each stream's frames keep their order — and the next
	// connection binds only streams with nothing left to write on this one.
	full := func() bool {
		if len(s.queue) == 0 || !unbound(s.queue[0]) || len(ids) < wire.MaxConnStreams {
			return false
		}
		if !slices.ContainsFunc(s.queue, bound) {
			return true
		}
		first := slices.DeleteFunc(slices.Clone(s.queue), func(it *Item) bool { return !bound(it) })
		s.queue = append(first, slices.DeleteFunc(s.queue, bound)...)
		return false
	}
	framed := func() bool { return slices.ContainsFunc(s.queue, func(it *Item) bool { return it.F != nil }) }
	var buf, out []byte
	var burst []*Item
	for {
		s.mu.Lock()
		for s.nc == nc && !s.pingDueLocked() && (len(s.queue) == 0 || s.queue[0].sequenced() && len(s.inflight) >= s.credit || full() && (len(s.inflight) > 0 || !framed())) {
			if d := s.cfg.Keepalive; d > 0 && len(s.inflight) == 0 && !framed() {
				// Idle: a keepalive is due unless something wakes us first.
				t := time.AfterFunc(d, func() {
					s.mu.Lock()
					s.wantPing = true
					s.cond.Broadcast()
					s.mu.Unlock()
				})
				s.cond.Wait()
				t.Stop()
			} else {
				s.cond.Wait()
			}
		}
		if s.nc != nc {
			s.mu.Unlock()
			return nil
		}
		if full() && len(s.inflight) == 0 && framed() {
			s.mu.Unlock()
			return errRoll
		}
		burst = burst[:0]
		for n, binds := 0, 0; len(s.queue) > 0 && n < max(s.credit/4, 1); {
			it := s.queue[0]
			if unbound(it) { // a stream counts once per frame: the burst may end early
				if binds++; len(ids)+binds > wire.MaxConnStreams {
					break
				}
			}
			if it.sequenced() {
				if len(s.inflight) >= s.credit {
					break
				}
				s.inflight = append(s.inflight, it)
				n++
			}
			s.queue[0], s.queue = nil, s.queue[1:]
			burst = append(burst, it)
		}
		s.cond.Broadcast() // the queue has room
		s.mu.Unlock()

		for _, it := range burst {
			var err error
			out, err = encode(buf[:0], ids, it)
			buf = out[:0]
			if err != nil {
				// Nothing of the frame was written: it fails alone and the
				// connection carries on.
				s.refuse(it, err)
			}
			bw.Write(out) //nolint:errcheck
		}
		s.mu.Lock()
		ping := s.pingDueLocked()
		if ping {
			s.pinged++
			for _, it := range s.inflight[len(s.inflight)-s.tailLocked():] {
				it.barrier = s.pinged
			}
			s.wantPing = false
			out, _ = wire.AppendFrame(buf[:0], &wire.Frame{Type: wire.TypePing, Seq: s.pinged})
		}
		s.mu.Unlock()
		if ping {
			bw.Write(out) //nolint:errcheck
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// pingDueLocked reports whether to Ping now: for a keepalive, or for
// written frames no Ping covers yet once no Ping is outstanding — its Pong
// sends the next, covering everything written meanwhile — or a quarter of
// the window is uncovered. So barriers pipeline with the data, a waiter is
// at most one barrier behind its frames, and the server, for which each
// Ping is a stall (on a cluster node, a round trip to the stream's other
// members), sees about one per round trip rather than one per frame.
func (s *Sender) pingDueLocked() bool {
	tail := s.tailLocked()
	return s.wantPing || tail > 0 && (s.pinged == s.ponged || tail >= max(s.credit/4, 1))
}

// tailLocked counts the frames at the end of the flight no Ping covers.
func (s *Sender) tailLocked() int {
	n := 0
	for n < len(s.inflight) && s.inflight[len(s.inflight)-1-n].barrier == 0 {
		n++
	}
	return n
}

// refuse resolves a frame the encoder refused: a sequenced one leaves the
// flight until a Wait reports it; an unsequenced one, whose size its caller
// checked, is only logged.
func (s *Sender) refuse(it *Item, err error) {
	if !it.sequenced() {
		s.cfg.Logf("sender: session %s: frame not sent: %v", s.cfg.Session, err)
		return
	}
	s.mu.Lock()
	if i := slices.Index(s.inflight, it); i >= 0 {
		s.inflight = slices.Delete(s.inflight, i, i+1)
	}
	s.refused[it.F.Seq] = fmt.Errorf("seq %d: %w", it.F.Seq, err)
	s.dropped++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// encode appends it to buf: an OpenStream the first time the connection
// sees its stream, then the frame under the connection's ID. On an error
// the bytes returned, the binding if any, must still be written.
func encode(buf []byte, ids map[string]uint64, it *Item) ([]byte, error) {
	f := it.F
	if it.Stream != "" {
		id, ok := ids[it.Stream]
		if !ok {
			id = uint64(len(ids)) + 1
			open, err := wire.AppendFrame(buf, &wire.Frame{Type: wire.TypeOpenStream, StreamID: id, Name: it.Stream})
			if err != nil {
				return buf, err
			}
			buf, ids[it.Stream] = open, id
		}
		if f == nil {
			return buf, nil
		}
		cp := *f
		cp.StreamID = id
		f = &cp
	}
	out, err := wire.AppendFrame(buf, f)
	if err != nil {
		return buf, err
	}
	return out, nil
}
