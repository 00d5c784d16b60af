package ingest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/wire"
)

func newTestDB(t *testing.T, opts hsq.Options) *hsq.DB {
	t.Helper()
	if opts.Epsilon == 0 {
		opts.Epsilon = 0.05
	}
	if opts.Backend == "" {
		opts.Backend = "mem"
	}
	db, err := hsq.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() }) //nolint:errcheck
	return db
}

// rawConn is a test harness speaking raw wire frames to a Server over a
// real loopback socket, bypassing hsqclient — for pinning server behavior
// against the protocol itself rather than against our own client. (A
// net.Pipe would deadlock here: it has no buffering, and the protocol
// legitimately has moments where both sides write — e.g. the server
// answering a Ping while the client pushes the next batch.)
type rawConn struct {
	t  *testing.T
	nc net.Conn
	w  *wire.Writer
	r  *wire.Reader
	wg sync.WaitGroup
}

func dialRaw(t *testing.T, s *Server) *rawConn {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := &rawConn{t: t}
	rc.wg.Add(1)
	go func() {
		defer rc.wg.Done()
		// Close the listener only once Accept has returned: closing it
		// with the dialled connection still in the backlog resets it.
		server, err := l.Accept()
		l.Close() //nolint:errcheck
		if err != nil {
			return
		}
		s.ServeConn(server)
	}()
	rc.nc, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close() //nolint:errcheck // unblocks Accept
		t.Fatal(err)
	}
	rc.w, rc.r = wire.NewWriter(rc.nc), wire.NewReader(rc.nc)
	t.Cleanup(func() {
		rc.nc.Close() //nolint:errcheck
		rc.wg.Wait()
	})
	return rc
}

func (rc *rawConn) send(f *wire.Frame) {
	rc.t.Helper()
	if err := rc.w.WriteFrame(f); err != nil {
		rc.t.Fatalf("write %s: %v", f, err)
	}
	if err := rc.w.Flush(); err != nil {
		rc.t.Fatalf("flush %s: %v", f, err)
	}
}

func (rc *rawConn) recv() *wire.Frame {
	rc.t.Helper()
	rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	f, err := rc.r.ReadFrame()
	if err != nil {
		rc.t.Fatalf("read frame: %v", err)
	}
	return f
}

// quiet asserts the server writes nothing for d.
func (rc *rawConn) quiet(d time.Duration) {
	rc.t.Helper()
	rc.nc.SetReadDeadline(time.Now().Add(d)) //nolint:errcheck
	f, err := rc.r.ReadFrame()
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		rc.t.Fatalf("server wrote %v (err %v), want nothing for %v", f, err, d)
	}
}

// ping sends a Ping and expects exactly its Pong back.
func (rc *rawConn) ping(seq uint64) {
	rc.t.Helper()
	rc.send(&wire.Frame{Type: wire.TypePing, Seq: seq})
	if f := rc.recv(); f.Type != wire.TypePong || f.Seq != seq {
		rc.t.Fatalf("got %s, want Pong{seq=%d}", f, seq)
	}
}

func (rc *rawConn) hello(session string) *wire.Frame {
	rc.t.Helper()
	rc.send(&wire.Frame{Type: wire.TypeHello, Version: wire.Version, Session: session})
	f := rc.recv()
	if f.Type != wire.TypeWelcome {
		rc.t.Fatalf("handshake reply: %s, want welcome", f)
	}
	return f
}

// TestHandshake pins the happy path: Hello → Welcome with the window and
// no marks for a fresh session.
func TestHandshake(t *testing.T) {
	s := New(Config{DB: newTestDB(t, hsq.Options{})})
	rc := dialRaw(t, s)
	w := rc.hello("sess-1")
	if len(w.StreamSeqs) != 0 || w.Credit != DefaultWindow || w.Version != wire.Version {
		t.Fatalf("welcome = %s, want no marks, credit=%d v%d", w, DefaultWindow, wire.Version)
	}
}

// TestHandshakeRejections pins the error paths: wrong first frame,
// version mismatch (a client of protocol 1 or 2 among them), empty
// session. Each must produce an Error frame with the protocol code, then a
// closed connection.
func TestHandshakeRejections(t *testing.T) {
	cases := []struct {
		name  string
		frame *wire.Frame
		want  string
	}{
		{"not-hello", &wire.Frame{Type: wire.TypePing, Seq: 1}, "want hello"},
		{"bad-version", &wire.Frame{Type: wire.TypeHello, Version: 99, Session: "s"}, "version"},
		{"v1-hello", &wire.Frame{Type: wire.TypeHello, Version: 1, Session: "s"}, "version 1"},
		{"v2-hello", &wire.Frame{Type: wire.TypeHello, Version: 2, Session: "s", Flags: wire.HelloFlagRelay}, "version 2"},
		{"empty-session", &wire.Frame{Type: wire.TypeHello, Version: wire.Version, Session: ""}, "session"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{DB: newTestDB(t, hsq.Options{})})
			rc := dialRaw(t, s)
			rc.send(tc.frame)
			f := rc.recv()
			if f.Type != wire.TypeError || f.Code != wire.ErrCodeProtocol {
				t.Fatalf("got %s, want protocol error", f)
			}
			if !strings.Contains(f.Message, tc.want) {
				t.Fatalf("error %q does not mention %q", f.Message, tc.want)
			}
		})
	}
}

// TestApplyConfirmedByPong drives batches and an end-step through one
// connection. The server confirms nothing unasked — no frame arrives until
// a Ping, which gets exactly one Pong — and the data has landed in the DB
// by then.
func TestApplyConfirmedByPong(t *testing.T) {
	db := newTestDB(t, hsq.Options{})
	s := New(Config{DB: db})
	rc := dialRaw(t, s)
	rc.hello("sess-1")

	rc.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "api.latency"})
	rc.send(&wire.Frame{Type: wire.TypeBatch, Seq: 1, StreamID: 1, Values: []int64{1, 2, 3}})
	rc.send(&wire.Frame{Type: wire.TypeBatch, Seq: 2, StreamID: 1, Values: []int64{4, 5}})
	rc.send(&wire.Frame{Type: wire.TypeEndStep, Seq: 3, StreamID: 1})
	rc.quiet(200 * time.Millisecond)
	rc.ping(7)
	rc.quiet(200 * time.Millisecond)

	st, ok := db.Lookup("api.latency")
	if !ok {
		t.Fatal("stream not created")
	}
	if n := st.TotalCount(); n != 5 {
		t.Fatalf("TotalCount = %d, want 5", n)
	}
	if got := st.Steps(); got != 1 {
		t.Fatalf("Steps = %d, want 1", got)
	}

	stats := s.Stats()
	if stats.Values != 5 || stats.Batches != 2 || stats.EndSteps != 1 {
		t.Fatalf("stats = %+v, want 5 values / 2 batches / 1 endstep", stats)
	}
	if ss := stats.Streams["api.latency"]; ss.Values != 5 {
		t.Fatalf("per-stream values = %d, want 5", ss.Values)
	}
}

// TestSessionResume pins exactly-once across reconnects: a second
// connection with the same session learns the applied high-water mark and
// replayed duplicates are not re-applied.
func TestSessionResume(t *testing.T) {
	db := newTestDB(t, hsq.Options{})
	s := New(Config{DB: db})

	rc1 := dialRaw(t, s)
	rc1.hello("sess-r")
	rc1.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "a"})
	rc1.send(&wire.Frame{Type: wire.TypeBatch, Seq: 1, StreamID: 1, Values: []int64{10, 20}})
	rc1.ping(1)
	rc1.nc.Close() //nolint:errcheck

	rc2 := dialRaw(t, s)
	w := rc2.hello("sess-r")
	if want := []wire.StreamSeq{{Name: "a", Seq: 1}}; !reflect.DeepEqual(w.StreamSeqs, want) {
		t.Fatalf("resumed welcome marks = %v, want %v", w.StreamSeqs, want)
	}
	// Replay the already-applied frame (as a client that missed the Pong
	// would), plus a new one.
	rc2.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "a"})
	rc2.send(&wire.Frame{Type: wire.TypeBatch, Seq: 1, StreamID: 1, Values: []int64{10, 20}})
	rc2.send(&wire.Frame{Type: wire.TypeBatch, Seq: 2, StreamID: 1, Values: []int64{30}})
	rc2.ping(2)

	st, _ := db.Lookup("a")
	if n := st.StreamCount(); n != 3 {
		t.Fatalf("StreamCount = %d after replay, want 3 (duplicate re-applied?)", n)
	}
	if d := s.Stats().DupFrames; d != 1 {
		t.Fatalf("DupFrames = %d, want 1", d)
	}
}

// TestUnboundStream pins the error for a batch on a never-opened ID.
func TestUnboundStream(t *testing.T) {
	s := New(Config{DB: newTestDB(t, hsq.Options{})})
	rc := dialRaw(t, s)
	rc.hello("sess-u")
	rc.send(&wire.Frame{Type: wire.TypeBatch, Seq: 1, StreamID: 7, Values: []int64{1}})
	f := rc.recv()
	if f.Type != wire.TypeError || f.Code != wire.ErrCodeStream {
		t.Fatalf("got %s, want stream error", f)
	}
}

// TestInvalidStreamName pins the error path for a name the DB rejects.
func TestInvalidStreamName(t *testing.T) {
	s := New(Config{DB: newTestDB(t, hsq.Options{})})
	rc := dialRaw(t, s)
	rc.hello("sess-i")
	rc.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "bad/name"})
	f := rc.recv()
	if f.Type != wire.TypeError || f.Code != wire.ErrCodeStream {
		t.Fatalf("got %s, want stream error", f)
	}
}

// TestStreamNameTooLong pins that a name over one path component (256
// bytes) is refused at OpenStream, before the DB registers it.
func TestStreamNameTooLong(t *testing.T) {
	db := newTestDB(t, hsq.Options{})
	s := New(Config{DB: db})
	rc := dialRaw(t, s)
	rc.hello("sess-l")
	rc.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: strings.Repeat("n", 256)})
	f := rc.recv()
	if f.Type != wire.TypeError || f.Code != wire.ErrCodeStream {
		t.Fatalf("got %s, want stream error", f)
	}
	if names := db.Streams(); len(names) != 0 {
		t.Fatalf("registered %d stream(s) after a refused OpenStream", len(names))
	}
}

// TestRebindStreamID pins that re-binding an ID to a different name is a
// protocol-level error (silent rebinding would mis-route batches).
func TestRebindStreamID(t *testing.T) {
	s := New(Config{DB: newTestDB(t, hsq.Options{})})
	rc := dialRaw(t, s)
	rc.hello("sess-b")
	rc.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "a"})
	rc.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "a"}) // idempotent: fine
	rc.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "b"})
	f := rc.recv()
	if f.Type != wire.TypeError {
		t.Fatalf("got %s, want error", f)
	}
	if !strings.Contains(f.Message, "rebound") {
		t.Fatalf("error %q does not mention rebinding", f.Message)
	}
}

// writeAll writes frames from a goroutine, so the caller can read the
// server's replies meanwhile, and reports the write error when done.
func (rc *rawConn) writeAll(frames []*wire.Frame) <-chan error {
	done := make(chan error, 1)
	go func() {
		for _, f := range frames {
			if err := rc.w.WriteFrame(f); err != nil {
				done <- err
				return
			}
		}
		done <- rc.w.Flush()
	}()
	return done
}

// ingestsAfresh checks that a new connection to s still applies a batch.
func ingestsAfresh(t *testing.T, s *Server, db *hsq.DB) {
	t.Helper()
	rc := dialRaw(t, s)
	rc.hello("sess-fresh")
	rc.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "fresh"})
	rc.send(&wire.Frame{Type: wire.TypeBatch, Seq: 1, StreamID: 1, Values: []int64{1, 2, 3}})
	rc.ping(1)
	if st, ok := db.Lookup("fresh"); !ok || st.StreamCount() != 3 {
		t.Fatalf("a fresh connection did not ingest: stream found %v", ok)
	}
}

// TestConnStreamLimit pins MaxConnStreams: one connection binds that many
// stream IDs (all to one name, so the DB holds one stream), the next new ID
// is refused with ErrCodeStream naming the limit, and a fresh connection
// still ingests.
func TestConnStreamLimit(t *testing.T) {
	db := newTestDB(t, hsq.Options{})
	s := New(Config{DB: db})
	rc := dialRaw(t, s)
	rc.hello("sess-streams")
	var opens []*wire.Frame
	for id := uint64(1); id <= wire.MaxConnStreams+1; id++ {
		opens = append(opens, &wire.Frame{Type: wire.TypeOpenStream, StreamID: id, Name: "one"})
	}
	done := rc.writeAll(opens)
	f := rc.recv()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypeError || f.Code != wire.ErrCodeStream ||
		!strings.Contains(f.Message, fmt.Sprintf("stream id %d:", wire.MaxConnStreams+1)) || !strings.Contains(f.Message, "MaxConnStreams") {
		t.Fatalf("got %s, want a stream error for id %d naming MaxConnStreams", f, wire.MaxConnStreams+1)
	}
	ingestsAfresh(t, s, db)
}

// TestConnSubscriptionLimit pins MaxConnSubscriptions: one connection
// holds that many subscriptions, the next new one is nacked with
// ErrCodePlan naming the limit while the others push results, the
// connection still answers a Ping, and a fresh connection still ingests.
func TestConnSubscriptionLimit(t *testing.T) {
	db := newTestDB(t, hsq.Options{})
	s := New(Config{DB: db})
	rc := dialRaw(t, s)
	rc.hello("sess-subs")
	rc.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "one"})
	rc.send(&wire.Frame{Type: wire.TypeBatch, Seq: 1, StreamID: 1, Values: []int64{1, 2, 3}})
	rc.send(&wire.Frame{Type: wire.TypeEndStep, Seq: 2, StreamID: 1})
	rc.ping(1)
	plan := []byte(`{"streams":["one"],"phis":[0.5]}`)
	var subs []*wire.Frame
	for id := uint64(1); id <= wire.MaxConnSubscriptions+1; id++ {
		subs = append(subs, &wire.Frame{Type: wire.TypeSubscribe, StreamID: id, Data: plan})
	}
	done := rc.writeAll(append(subs, &wire.Frame{Type: wire.TypePing, Seq: 2}))
	var nack, pong bool
	for !nack || !pong {
		switch f := rc.recv(); {
		case f.Type == wire.TypePong && f.Seq == 2:
			pong = true
		case f.Type == wire.TypePush && f.StreamID == wire.MaxConnSubscriptions+1:
			if f.Code != wire.ErrCodePlan || !strings.Contains(f.Message, "MaxConnSubscriptions") {
				t.Fatalf("got %s, want a plan nack naming MaxConnSubscriptions", f)
			}
			nack = true
		case f.Type != wire.TypePush || f.Code != 0:
			t.Fatalf("got %s, want a push result", f)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Subscribes; got != wire.MaxConnSubscriptions {
		t.Fatalf("%d subscriptions registered, want %d", got, wire.MaxConnSubscriptions)
	}
	ingestsAfresh(t, s, db)
}

// floorHook is a ClusterHook that relays nothing and records the sequence
// numbers its WaitRelayed is asked for.
type floorHook struct {
	mu    sync.Mutex
	waits []uint64
}

func (h *floorHook) Member(string) bool                            { return true }
func (h *floorHook) Relay(string, string, *wire.Frame, bool) error { return nil }
func (h *floorHook) WaitRelayed(_ context.Context, _ string, seq uint64) error {
	h.mu.Lock()
	h.waits = append(h.waits, seq)
	h.mu.Unlock()
	return nil
}

// TestPongWaitsOnWelcomeFloor: a Pong is gated on the cluster relays up to
// max(frames read on the connection, the session floor its Welcome
// reported), so a reconnected client's first Pong also confirms the frames
// the Welcome pruned — before any frame is written on the new connection.
func TestPongWaitsOnWelcomeFloor(t *testing.T) {
	hook := &floorHook{}
	s := New(Config{DB: newTestDB(t, hsq.Options{}), Cluster: hook})
	rc1 := dialRaw(t, s)
	rc1.hello("sess-f")
	rc1.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "a"})
	rc1.send(&wire.Frame{Type: wire.TypeBatch, Seq: 4, StreamID: 1, Values: []int64{1}})
	rc1.send(&wire.Frame{Type: wire.TypeEndStep, Seq: 5, StreamID: 1})
	rc1.ping(1)
	rc1.nc.Close() //nolint:errcheck

	rc2 := dialRaw(t, s)
	rc2.hello("sess-f")
	rc2.ping(1)
	rc2.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "b"})
	rc2.send(&wire.Frame{Type: wire.TypeBatch, Seq: 6, StreamID: 1, Values: []int64{2}})
	rc2.ping(2)
	hook.mu.Lock()
	defer hook.mu.Unlock()
	if want := []uint64{5, 5, 6}; !reflect.DeepEqual(hook.waits, want) {
		t.Fatalf("WaitRelayed seqs = %v, want %v", hook.waits, want)
	}
}

// TestShutdownDrain pins Shutdown: live connections get a shutdown error
// frame and Serve returns net.ErrClosed.
func TestShutdownDrain(t *testing.T) {
	s := New(Config{DB: newTestDB(t, hsq.Options{})})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close() //nolint:errcheck
	w, r := wire.NewWriter(nc), wire.NewReader(nc)
	if err := w.WriteFrame(&wire.Frame{Type: wire.TypeHello, Version: wire.Version, Session: "sd"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if f, err := r.ReadFrame(); err != nil || f.Type != wire.TypeWelcome {
		t.Fatalf("welcome: %v %v", f, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	f, err := r.ReadFrame()
	if err == nil && (f.Type != wire.TypeError || f.Code != wire.ErrCodeShutdown) {
		t.Fatalf("got %s, want shutdown error frame", f)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}

// TestSessionTTLEviction pins the session-table bound: a session
// detached longer than the TTL is swept on the next adoption, while a
// fresh one survives.
func TestSessionTTLEviction(t *testing.T) {
	s := New(Config{DB: newTestDB(t, hsq.Options{}), SessionTTL: 30 * time.Millisecond})

	rc1 := dialRaw(t, s)
	rc1.hello("ephemeral")
	rc1.nc.Close() //nolint:errcheck
	waitSessions := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().Sessions != want {
			if time.Now().After(deadline) {
				t.Fatalf("sessions = %d, want %d", s.Stats().Sessions, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitSessions(1)
	time.Sleep(60 * time.Millisecond) // let "ephemeral" expire

	rc2 := dialRaw(t, s)
	rc2.hello("fresh") // adoption sweeps the expired session
	waitSessions(1)

	// A session detached for less than the TTL survives the sweep.
	rc2.nc.Close() //nolint:errcheck
	rc3 := dialRaw(t, s)
	rc3.hello("third")
	if got := s.Stats().Sessions; got != 2 {
		t.Fatalf("sessions = %d, want 2 (fresh not yet expired + third)", got)
	}
}
