// Package ingest is the server half of the remote ingest subsystem: it
// accepts hsqclient connections speaking the internal/wire protocol and
// applies their frames to the streams of an hsq.DB through the
// ObserveSlice fast path. Frames that originate on the node itself (hsqd's
// REST writes) enter through Server.Write and share that apply path.
//
// One goroutine per connection reads frames in order and applies each
// before reading the next, so the server never buffers un-applied data:
// the only queue is the kernel socket buffer, and the credit window the
// Welcome grants bounds how far a client may run ahead of its Pongs. The
// Pong is the server's only confirmation. While a stream's EndStep runs
// its step's level-0 write and the merges it makes due, the connection stops
// reading, Pongs stop and the client's credit drains — backpressure
// propagates to the producer instead of accumulating server-side.
//
// Sessions give reconnecting clients exactly-once delivery per server
// process: each sequenced frame carries a client-assigned sequence
// number, the session records the highest applied one per stream, and the
// Welcome frame restates those marks so the client can discard
// already-applied frames before re-sending the rest.
//
// Limits. Past each, a peer gets a named refusal, never an unbounded
// allocation:
//
//	frame                      wire.MaxFrameSize (1 MiB)          decode error, connection closed
//	session token              wire.MaxSessionLen (64 bytes)      decode error, connection closed
//	stream name                255 bytes (hsq.ValidStreamName)    ErrCodeStream, connection closed
//	stream IDs per connection  wire.MaxConnStreams (65 536)       ErrCodeStream, connection closed
//	subscriptions per conn.    wire.MaxConnSubscriptions (1 024)  Push nack ErrCodePlan, connection kept
//	window count of a plan     query.MaxWindowCount (1 024)       Push nack ErrCodePlan, connection kept
package ingest

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/wire"
)

// DefaultWindow is the credit window granted to clients: the number of
// sequenced frames a client may have in flight (written, no Pong yet).
const DefaultWindow = 64

// handshakeTimeout bounds how long a fresh connection may take to present
// its Hello frame before the server hangs up.
const handshakeTimeout = 10 * time.Second

// DefaultSessionTTL is how long a disconnected session's replay state
// (its applied-sequence high-water mark) is retained for reconnection.
const DefaultSessionTTL = time.Hour

// ClusterHook is what a sharded deployment plugs into the ingest server
// (implemented by internal/cluster; nil for a single-node server).
//
// The contract that keeps confirmations honest across the cluster: every
// sequenced frame the server processes is offered to Relay before the
// server may confirm it, and every confirmation — a connection's Pong, for
// the frames it read and its Welcome's floor, or Write returning nil — is
// preceded by WaitRelayed, so a confirmed frame is applied on every
// reachable member of its stream.
type ClusterHook interface {
	// Member reports whether this node stores stream (owner or follower).
	Member(stream string) bool
	// Relay hands a sequenced frame to the cluster transport under the
	// session token and sequence number it carries: the client's own for a
	// connection's frames, the server's origin session for Write's. Within
	// one (session, stream) calls must come in ascending sequence order.
	// fanOnly marks frames that arrived over an already-routed connection:
	// they fan out to replica followers but are never routed again.
	Relay(session, stream string, f *wire.Frame, fanOnly bool) error
	// WaitRelayed blocks until every frame relayed for session with
	// sequence ≤ seq is resolved (acked by its target, rerouted, or
	// dropped because the target stayed down).
	WaitRelayed(ctx context.Context, session string, seq uint64) error
}

// Config parametrizes a Server.
type Config struct {
	// DB is the database frames are applied to. Required.
	DB *hsq.DB
	// SessionTTL bounds how long a session with no live connection keeps
	// its replay state; a client reconnecting later starts a fresh
	// session (its unacknowledged frames would then be re-applied, so
	// clients should not buffer across outages longer than this). 0 means
	// DefaultSessionTTL. Without a TTL, one-shot producers would grow the
	// session table forever.
	SessionTTL time.Duration
	// IdleTimeout, when positive, closes connections that send no frame
	// for that long. Clients using keepalive pings stay connected through
	// idle periods. 0 disables the deadline (the default: producers that
	// connect once and write rarely keep working).
	IdleTimeout time.Duration
	// Cluster, when non-nil, shards the server: frames for streams this
	// node does not store are routed to the owning shard, applied frames
	// are fanned to replica followers, and Pongs wait for both.
	Cluster ClusterHook
	// Logf, when non-nil, receives connection-level log lines.
	Logf func(format string, args ...any)
}

// Server accepts and serves ingest connections. Create with New; it is
// ready immediately (Serve binds it to a listener, ServeConn to a single
// connection).
type Server struct {
	db          *hsq.DB
	sessionTTL  time.Duration
	idleTimeout time.Duration
	cluster     ClusterHook
	logf        func(format string, args ...any)

	// origin is the session Write relays under: frames that enter the
	// cluster at this node rather than over a client connection. The token
	// is drawn fresh per Server, so a restarted node never collides with
	// the marks its predecessor left on live peers (they keep them for
	// SessionTTL and would discard its restarted numbering as replays).
	// originMu makes sequence allocation and enqueue one step: the target
	// dedups by per-stream high-water mark, so a stream's frames must be
	// queued in sequence order.
	origin    string
	originMu  sync.Mutex
	originSeq uint64

	mu        sync.Mutex
	sessions  map[string]*session
	conns     map[uint64]*conn
	listeners map[net.Listener]struct{}
	streams   map[string]*streamCounters
	nextConn  uint64
	closed    bool
	baseCtx   context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup

	totalConns atomic.Uint64
	frames     atomic.Uint64
	dupFrames  atomic.Uint64
	errCount   atomic.Uint64
	subscribes atomic.Uint64
	pushes     atomic.Uint64
}

// session is the durable-for-the-process half of a client: the applied
// sequence marks that survive reconnects. sess.mu serializes frame
// application, so a reconnect racing its half-dead predecessor can never
// interleave applies or observe torn marks.
//
// Marks are per stream, not per connection: in a cluster the same
// session's frames can reach this node over different paths (directly,
// routed via another node, fanned from the owner), and a conn-wide
// high-water mark would wrongly dedup a stream whose frames took the
// slower path.
type session struct {
	mu         sync.Mutex
	streams    map[string]uint64 // stream name → highest applied seq
	conn       *conn             // current owner, nil when detached or relay-fed
	lastActive time.Time         // last adopt/detach/apply; zero before first detach
}

// streamCounters is the cumulative per-stream ingest tally (across every
// write door, connection and session). Entries are never removed, so the
// server's totals are their sums.
type streamCounters struct {
	batches  atomic.Uint64
	values   atomic.Uint64
	endSteps atomic.Uint64
}

func (sc *streamCounters) stats() StreamIngestStats {
	return StreamIngestStats{Batches: sc.batches.Load(), Values: sc.values.Load(), EndSteps: sc.endSteps.Load()}
}

// bound is a conn's binding of a client stream ID: the stream's name plus
// the local stream handle — nil when this node is not a member of the
// stream and frames are routed onward instead of applied.
type bound struct {
	name string
	st   *hsq.Stream
}

// conn is one live client connection.
type conn struct {
	id      uint64
	remote  string
	session string
	nc      net.Conn
	ctx     context.Context
	cancel  context.CancelFunc
	writeMu sync.Mutex // guards w: replies from the handler, pushes, errors from Shutdown
	w       *wire.Writer
	leaf    bool // apply-only relay target: no fan-out, no Pong gating
	relayIn bool // routed-relay target: applies and fans, never routes

	streamsMu sync.Mutex // the handler goroutine, c.streams' only writer, reads it unlocked
	streams   map[uint64]bound

	subMu   sync.Mutex
	subs    map[uint64]*subscription
	subWake chan struct{}
	pusher  bool // push goroutine started (guarded by subMu)

	batches  atomic.Uint64
	values   atomic.Uint64
	endSteps atomic.Uint64
	lastSeq  atomic.Uint64
}

// New returns a Server over cfg.DB.
func New(cfg Config) *Server {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ttl := cfg.SessionTTL
	if ttl <= 0 {
		ttl = DefaultSessionTTL
	}
	var tok [16]byte
	rand.Read(tok[:]) //nolint:errcheck // crypto/rand.Read never fails (it aborts the process instead)
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		origin:      "origin-" + hex.EncodeToString(tok[:]),
		db:          cfg.DB,
		sessionTTL:  ttl,
		idleTimeout: cfg.IdleTimeout,
		cluster:     cfg.Cluster,
		logf:        logf,
		sessions:    make(map[string]*session),
		conns:       make(map[uint64]*conn),
		listeners:   make(map[net.Listener]struct{}),
		streams:     make(map[string]*streamCounters),
		baseCtx:     ctx,
		cancel:      cancel,
	}
}

// Serve accepts connections on l until the listener fails or the server
// shuts down. It always returns a non-nil error; after Shutdown the error
// is net.ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("ingest: server closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		if s.startConn(nc) == nil {
			nc.Close() //nolint:errcheck
			return net.ErrClosed
		}
	}
}

// ServeConn serves a single pre-established connection (tests use it with
// net.Pipe) and returns once the connection's handler has finished.
func (s *Server) ServeConn(nc net.Conn) {
	if done := s.startConn(nc); done != nil {
		<-done
		return
	}
	nc.Close() //nolint:errcheck
}

// startConn registers the connection and spawns its handler, returning a
// channel closed when the handler finishes; it returns nil when the
// server is shut down.
func (s *Server) startConn(nc net.Conn) <-chan struct{} {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.nextConn++
	ctx, cancel := context.WithCancel(s.baseCtx)
	c := &conn{
		id:      s.nextConn,
		remote:  nc.RemoteAddr().String(),
		nc:      nc,
		ctx:     ctx,
		cancel:  cancel,
		w:       wire.NewWriter(nc),
		streams: make(map[uint64]bound),
		subs:    make(map[uint64]*subscription),
		subWake: make(chan struct{}, 1),
	}
	s.conns[c.id] = c
	s.wg.Add(1)
	s.mu.Unlock()
	s.totalConns.Add(1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		defer s.wg.Done()
		defer func() {
			s.mu.Lock()
			delete(s.conns, c.id)
			s.mu.Unlock()
			s.detachSession(c)
			cancel()
			nc.Close() //nolint:errcheck
		}()
		err := s.handle(c)
		// io.EOF is the clean client close; the others are the usual
		// aftermath of a force-closed or cancelled connection.
		if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, context.Canceled) {
			s.logf("ingest: conn %d (%s): %v", c.id, c.remote, err)
		}
	}()
	return done
}

// detachSession releases the session's owner pointer if c still holds it.
func (s *Server) detachSession(c *conn) {
	if c.session == "" {
		return
	}
	s.mu.Lock()
	sess := s.sessions[c.session]
	s.mu.Unlock()
	if sess == nil {
		return
	}
	sess.mu.Lock()
	if sess.conn == c {
		sess.conn = nil
	}
	sess.lastActive = time.Now()
	sess.mu.Unlock()
}

// push writes one frame and flushes it under the connection's write lock:
// the one way the server sends a frame.
func (c *conn) push(f *wire.Frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := c.w.WriteFrame(f); err != nil {
		return err
	}
	return c.w.Flush()
}

// sendError writes a terminal error frame (best effort) and returns err.
func (s *Server) sendError(c *conn, code uint64, err error) error {
	s.errCount.Add(1)
	c.push(&wire.Frame{Type: wire.TypeError, Code: code, Message: err.Error()}) //nolint:errcheck // best effort
	return err
}

// handle runs the per-connection protocol: handshake, then the frame
// apply loop. Frames are applied strictly in arrival order, each fully
// applied before the next is read.
func (s *Server) handle(c *conn) error {
	r := wire.NewReader(c.nc)

	// Handshake, under a deadline so silent connections don't pin a
	// goroutine forever.
	c.nc.SetReadDeadline(time.Now().Add(handshakeTimeout)) //nolint:errcheck
	hello, err := r.ReadFrame()
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	c.nc.SetReadDeadline(time.Time{}) //nolint:errcheck
	if hello.Type != wire.TypeHello {
		return s.sendError(c, wire.ErrCodeProtocol, fmt.Errorf("first frame is %s, want hello", wire.TypeName(hello.Type)))
	}
	if hello.Version != wire.Version {
		return s.sendError(c, wire.ErrCodeProtocol, fmt.Errorf("protocol version %d, server speaks %d", hello.Version, wire.Version))
	}
	if hello.Session == "" {
		return s.sendError(c, wire.ErrCodeProtocol, errors.New("empty session token"))
	}
	c.leaf = hello.Flags&wire.HelloFlagLeaf != 0
	c.relayIn = hello.Flags&wire.HelloFlagRelay != 0
	// c.session is read by Stats() under s.mu; publish it the same way.
	s.mu.Lock()
	c.session = hello.Session
	s.mu.Unlock()
	sess := s.adoptSession(c, hello.Session)

	// Welcome restates the session's applied marks so the client prunes
	// its replay buffer, plus the credit window. floor is their maximum:
	// what the client prunes it never writes here, so every Pong covers it
	// as well as the frames this connection has read.
	sess.mu.Lock()
	var floor uint64
	marks := make([]wire.StreamSeq, 0, len(sess.streams))
	for name, seq := range sess.streams {
		marks = append(marks, wire.StreamSeq{Name: name, Seq: seq})
		floor = max(floor, seq)
	}
	sess.mu.Unlock()
	sort.Slice(marks, func(i, j int) bool { return marks[i].Name < marks[j].Name })
	if err := c.push(&wire.Frame{Type: wire.TypeWelcome, Version: wire.Version, Credit: DefaultWindow, StreamSeqs: marks}); err != nil {
		return fmt.Errorf("welcome: %w", err)
	}

	for {
		if s.idleTimeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(s.idleTimeout)) //nolint:errcheck
		}
		f, err := r.ReadFrame()
		if err != nil {
			return err // EOF on clean client close
		}
		s.frames.Add(1)
		switch f.Type {
		case wire.TypeOpenStream:
			if err := s.openStream(c, f); err != nil {
				return s.sendError(c, wire.ErrCodeStream, err)
			}
		case wire.TypeBatch, wire.TypeEndStep:
			applied, err := s.applySequenced(c, sess, f)
			if err != nil {
				if errors.Is(err, context.Canceled) {
					return s.sendError(c, wire.ErrCodeShutdown, errors.New("server shutting down"))
				}
				return s.sendError(c, wire.ErrCodeStream, err)
			}
			if !applied {
				s.dupFrames.Add(1)
			}
		case wire.TypePing:
			// The Pong is the delivery confirmation: everything read before
			// the Ping, and everything the Welcome reported applied, is
			// applied — and, over a cluster, relayed.
			if s.cluster != nil && !c.leaf {
				if err := s.cluster.WaitRelayed(c.ctx, c.session, max(c.lastSeq.Load(), floor)); err != nil {
					return s.sendError(c, wire.ErrCodeStream, fmt.Errorf("relay: %w", err))
				}
			}
			if err := c.push(&wire.Frame{Type: wire.TypePong, Seq: f.Seq}); err != nil {
				return err
			}
		case wire.TypeSummaryReq:
			if err := s.serveSummary(c, f); err != nil {
				return err
			}
		case wire.TypeSubscribe:
			if err := s.subscribe(c, f); err != nil {
				return err
			}
		case wire.TypeUnsubscribe:
			s.unsubscribe(c, f.StreamID)
		default:
			return s.sendError(c, wire.ErrCodeProtocol, fmt.Errorf("unexpected %s frame", wire.TypeName(f.Type)))
		}
	}
}

// serveSummary answers a SummaryReq with the named stream's serialized
// shard summary — the scatter-gather query path's per-shard fetch. An
// unknown stream yields an empty summary (this shard holds nothing).
func (s *Server) serveSummary(c *conn, f *wire.Frame) error {
	resp := &wire.Frame{Type: wire.TypeSummaryResp, Seq: f.Seq}
	if st, ok := s.db.Lookup(f.Name); ok {
		sum, err := st.Summary()
		if err != nil {
			resp.Code = wire.ErrCodeStream
			resp.Message = err.Error()
		} else {
			resp.Data = sum.AppendBinary(nil)
		}
	}
	return c.push(resp)
}

// adoptSession binds the connection to its session, superseding a
// previous connection that still holds it (the usual aftermath of a
// client-side reconnect racing the server noticing the dead socket).
// Relay and leaf connections attach without adopting: several of them can
// feed one session concurrently with a client connection, and they must
// never kill it. Each adoption also sweeps sessions inactive longer than
// the TTL, so one-shot producers do not grow the session table without
// bound.
func (s *Server) adoptSession(c *conn, token string) *session {
	s.mu.Lock()
	for tok, old := range s.sessions {
		if tok == token {
			continue
		}
		old.mu.Lock()
		expired := old.conn == nil && !old.lastActive.IsZero() && time.Since(old.lastActive) > s.sessionTTL
		old.mu.Unlock()
		if expired {
			delete(s.sessions, tok)
		}
	}
	sess, ok := s.sessions[token]
	if !ok {
		sess = &session{}
		s.sessions[token] = sess
	}
	s.mu.Unlock()
	if c.leaf || c.relayIn {
		sess.mu.Lock()
		sess.lastActive = time.Now()
		sess.mu.Unlock()
		return sess
	}
	sess.mu.Lock()
	prev := sess.conn
	sess.conn = c
	sess.lastActive = time.Now()
	sess.mu.Unlock()
	if prev != nil && prev != c {
		prev.cancel()
		prev.nc.Close() //nolint:errcheck
	}
	return sess
}

// openStream binds a client stream ID to a stream name. Idempotent for
// the same (id, name); rebinding an ID to a different name is a protocol
// error. On a cluster node the local stream is only created (and frames
// later applied) when this node is a member of the stream; otherwise the
// binding carries just the name and frames are routed onward. Relay and
// leaf connections always apply locally — the sender already decided this
// node is a member. A new ID past wire.MaxConnStreams is refused before any
// stream is opened.
func (s *Server) openStream(c *conn, f *wire.Frame) error {
	if prev, ok := c.streams[f.StreamID]; ok && prev.name != f.Name {
		return fmt.Errorf("stream id %d already bound to %q, rebound to %q", f.StreamID, prev.name, f.Name)
	} else if !ok && len(c.streams) >= wire.MaxConnStreams {
		return fmt.Errorf("stream id %d: the connection already binds %d stream ids, the limit (MaxConnStreams)", f.StreamID, len(c.streams))
	}
	b := bound{name: f.Name}
	if s.cluster == nil || c.leaf || c.relayIn || s.cluster.Member(f.Name) {
		st, err := s.db.Stream(f.Name)
		if err != nil {
			return fmt.Errorf("open stream %q: %w", f.Name, err)
		}
		b.st = st
	}
	c.streamsMu.Lock()
	defer c.streamsMu.Unlock()
	c.streams[f.StreamID] = b
	return nil
}

// applySequenced takes one Batch or EndStep frame off a connection: it
// resolves the frame's stream binding, runs the shared write body under the
// connection's session (apply, then relay), and keeps the connection's own
// tallies and processed-sequence cursor. It reports whether the frame was
// newly applied — a replay at or below the session's mark for the stream is
// confirmed but not re-applied, and a frame routed onward (no local member)
// counts as applied.
//
// Duplicates relay too — a replayed frame proves the client never saw its
// confirmation, so a follower may have missed it the first time; the
// follower's own marks squash the duplicate.
func (s *Server) applySequenced(c *conn, sess *session, f *wire.Frame) (bool, error) {
	b, ok := c.streams[f.StreamID]
	if !ok {
		return false, fmt.Errorf("%s for unbound stream id %d", wire.TypeName(f.Type), f.StreamID)
	}
	applied := true
	if b.st != nil {
		var err error
		if applied, _, err = s.apply(c.ctx, sess, b.st, f); err != nil {
			return false, err
		}
		if applied && f.Type == wire.TypeBatch {
			c.batches.Add(1)
			c.values.Add(uint64(len(f.Values)))
		} else if applied {
			c.endSteps.Add(1)
		}
	}
	bumpMax(&c.lastSeq, f.Seq)
	// Leaf connections are the fan's receiving end and stop here.
	if s.cluster != nil && !c.leaf {
		if err := s.cluster.Relay(c.session, b.name, f, c.relayIn); err != nil {
			return applied, fmt.Errorf("%w %q: %w", ErrRelay, b.name, err)
		}
	}
	return applied, nil
}

// apply is the one place a Batch or EndStep frame meets an engine,
// whichever door it came through: the engine call, the aggregate and
// per-stream tallies GET /ingest reports, and the continuous-query nudge
// after an EndStep. ctx is checked before an EndStep starts; a started one
// runs its write and merges to completion (for a connection that stall also
// stops its Pongs, draining the client's credit — the propagation path).
//
// gate is the session a connection's frame arrived under, nil for Write.
// A gated frame is applied only when it is above the session's mark for the
// stream, and moves the mark — check, engine call and mark under gate.mu, so
// a reconnect racing its half-dead predecessor cannot apply a frame twice.
// Marks are per (session, stream) because cluster paths can interleave one
// session's streams arbitrarily.
func (s *Server) apply(ctx context.Context, gate *session, st *hsq.Stream, f *wire.Frame) (applied bool, us hsq.UpdateStats, err error) {
	name := st.Name()
	if gate != nil {
		gate.mu.Lock()
		gate.lastActive = time.Now()
		if f.Seq <= gate.streams[name] {
			gate.mu.Unlock()
			return false, us, nil
		}
	}
	if f.Type == wire.TypeBatch {
		if err = st.ObserveSliceCtx(ctx, f.Values); err != nil {
			err = fmt.Errorf("observe %d values on %q: %w", len(f.Values), name, err)
		}
	} else if us, err = st.EndStepCtx(ctx); err != nil {
		err = fmt.Errorf("end step on %q: %w", name, err)
	}
	if gate != nil {
		if err == nil {
			if gate.streams == nil {
				gate.streams = make(map[string]uint64)
			}
			gate.streams[name] = f.Seq
		}
		gate.mu.Unlock()
	}
	if err != nil {
		return false, us, err
	}
	sc := s.streamCounters(name)
	if f.Type == wire.TypeBatch {
		sc.batches.Add(1)
		sc.values.Add(uint64(len(f.Values)))
	} else {
		sc.endSteps.Add(1)
		s.notifySubscribers(name)
	}
	return true, us, nil
}

// ErrOpenStream and ErrRelay tag the two Write failures that are not the
// engine refusing the frame: the stream could not be opened on this node
// (a bad name, a closed DB), and the cluster transport could not take or
// deliver the frame.
var (
	ErrOpenStream = errors.New("open stream")
	ErrRelay      = errors.New("relay")
)

// Write is the door for a Batch or EndStep frame that enters the cluster at
// this node — hsqd's REST writes — and does with it what a client
// connection's frame gets after its replay check, through the same apply
// body: a member of the stream (every node without a cluster) applies it and
// fans it to the other members, a non-member routes it to the owning shard.
// It returns the local stream and, for an EndStep, the step it closed; a nil
// stream means the frame was routed. A nil error is a confirmation in the
// ClusterHook sense: every reachable member has applied the frame.
//
// On a cluster node the frame travels under the server's origin session. A
// batch is cut with wire.SplitBatch, so no body size can produce a frame the
// relay channel cannot encode; each chunk is tallied as a batch, as the
// frames of a client that split the same values are.
func (s *Server) Write(ctx context.Context, stream string, f *wire.Frame) (st *hsq.Stream, us hsq.UpdateStats, err error) {
	if s.cluster == nil || s.cluster.Member(stream) {
		if st, err = s.db.Stream(stream); err != nil {
			return nil, us, fmt.Errorf("%w %q: %w", ErrOpenStream, stream, err)
		}
	}
	var last uint64
	for _, chunk := range wire.SplitBatch(f.Values) {
		cf := &wire.Frame{Type: f.Type, Values: chunk}
		if st != nil {
			if _, us, err = s.apply(ctx, nil, st, cf); err != nil {
				return st, us, err
			}
		}
		if s.cluster != nil {
			s.originMu.Lock()
			s.originSeq++
			cf.Seq = s.originSeq
			err = s.cluster.Relay(s.origin, stream, cf, false)
			s.originMu.Unlock()
			if err != nil {
				return st, us, fmt.Errorf("%w %q: %w", ErrRelay, stream, err)
			}
			last = cf.Seq
		}
	}
	if s.cluster != nil {
		if err = s.cluster.WaitRelayed(ctx, s.origin, last); err != nil {
			return st, us, fmt.Errorf("%w %q: %w", ErrRelay, stream, err)
		}
	}
	return st, us, nil
}

// bumpMax raises an atomic to seq if it is below it. The handler goroutine
// is the only writer, so a plain load+store pair is race-free; the atomic
// exists for Stats readers.
func bumpMax(a *atomic.Uint64, seq uint64) {
	if seq > a.Load() {
		a.Store(seq)
	}
}

func (s *Server) streamCounters(name string) *streamCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc, ok := s.streams[name]
	if !ok {
		sc = &streamCounters{}
		s.streams[name] = sc
	}
	return sc
}

// CloseActiveConns force-closes every live connection without shutting
// the server down. Clients reconnect and replay; tests use it to exercise
// exactly that path.
func (s *Server) CloseActiveConns() {
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.cancel()
		c.nc.Close() //nolint:errcheck
	}
}

// Shutdown drains the server: listeners stop accepting, every live
// connection gets a shutdown error frame, in-flight frame applies are
// cancelled (a blocked EndStep unblocks with context.Canceled), and the
// per-connection handlers are awaited up to ctx's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	listeners := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		listeners = append(listeners, l)
	}
	conns := make([]*conn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	for _, l := range listeners {
		l.Close() //nolint:errcheck
	}
	for _, c := range conns {
		// Best-effort courtesy frame so clients report "server shutting
		// down" instead of a bare reset, then cancel the apply context.
		c.push(&wire.Frame{Type: wire.TypeError, Code: wire.ErrCodeShutdown, Message: "server shutting down"}) //nolint:errcheck // best effort
		c.cancel()
		c.nc.Close() //nolint:errcheck
	}
	s.cancel()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ConnStats is a live-connection snapshot.
type ConnStats struct {
	ID       uint64 `json:"id"`
	Remote   string `json:"remote"`
	Session  string `json:"session"`
	Streams  int    `json:"streams"`
	Subs     int    `json:"subs"`
	Batches  uint64 `json:"batches"`
	Values   uint64 `json:"values"`
	EndSteps uint64 `json:"end_steps"`
	LastSeq  uint64 `json:"last_seq"`
}

// StreamIngestStats is the cumulative ingest tally for one stream.
type StreamIngestStats struct {
	Batches  uint64 `json:"batches"`
	Values   uint64 `json:"values"`
	EndSteps uint64 `json:"end_steps"`
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	Window      int                          `json:"window"`
	ActiveConns int                          `json:"active_conns"`
	TotalConns  uint64                       `json:"total_conns"`
	Sessions    int                          `json:"sessions"`
	Frames      uint64                       `json:"frames"`
	Batches     uint64                       `json:"batches"`
	Values      uint64                       `json:"values"`
	EndSteps    uint64                       `json:"end_steps"`
	DupFrames   uint64                       `json:"dup_frames"`
	Errors      uint64                       `json:"errors"`
	Subscribes  uint64                       `json:"subscribes"`
	Pushes      uint64                       `json:"pushes"`
	Streams     map[string]StreamIngestStats `json:"streams"`
	Conns       []ConnStats                  `json:"conns"`
}

// Stats snapshots the server counters. Per-connection entries are sorted
// by connection ID; per-stream entries are cumulative since server start.
func (s *Server) Stats() Stats {
	out := Stats{
		Window:     DefaultWindow,
		TotalConns: s.totalConns.Load(),
		Frames:     s.frames.Load(),
		DupFrames:  s.dupFrames.Load(),
		Errors:     s.errCount.Load(),
		Subscribes: s.subscribes.Load(),
		Pushes:     s.pushes.Load(),
		Streams:    make(map[string]StreamIngestStats),
		Conns:      []ConnStats{},
	}
	s.mu.Lock()
	out.ActiveConns = len(s.conns)
	out.Sessions = len(s.sessions)
	for name, sc := range s.streams {
		st := sc.stats()
		out.Streams[name] = st
		out.Batches += st.Batches
		out.Values += st.Values
		out.EndSteps += st.EndSteps
	}
	for _, c := range s.conns {
		c.streamsMu.Lock()
		ns := len(c.streams)
		c.streamsMu.Unlock()
		c.subMu.Lock()
		nsub := len(c.subs)
		c.subMu.Unlock()
		out.Conns = append(out.Conns, ConnStats{
			ID:       c.id,
			Remote:   c.remote,
			Session:  c.session,
			Streams:  ns,
			Subs:     nsub,
			Batches:  c.batches.Load(),
			Values:   c.values.Load(),
			EndSteps: c.endSteps.Load(),
			LastSeq:  c.lastSeq.Load(),
		})
	}
	s.mu.Unlock()
	sort.Slice(out.Conns, func(i, j int) bool { return out.Conns[i].ID < out.Conns[j].ID })
	return out
}
