package ingest

import (
	"context"
	"errors"
	"net"
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
// pushing an unprompted ack while the client pushes the next batch.)
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
// a zero high-water mark for a fresh session.
func TestHandshake(t *testing.T) {
	s := New(Config{DB: newTestDB(t, hsq.Options{})})
	rc := dialRaw(t, s)
	w := rc.hello("sess-1")
	if w.Seq != 0 || w.Credit != DefaultWindow || w.Version != wire.Version {
		t.Fatalf("welcome = %s, want lastSeq=0 credit=%d v%d", w, DefaultWindow, wire.Version)
	}
}

// TestHandshakeRejections pins the error paths: wrong first frame,
// version mismatch, empty session. Each must produce an Error frame with
// the protocol code, then a closed connection.
func TestHandshakeRejections(t *testing.T) {
	cases := []struct {
		name  string
		frame *wire.Frame
		want  string
	}{
		{"not-hello", &wire.Frame{Type: wire.TypeFlush, Seq: 1}, "want hello"},
		{"bad-version", &wire.Frame{Type: wire.TypeHello, Version: 99, Session: "s"}, "version"},
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

// TestApplyAndAck drives batches and an end-step through one connection
// and checks the data landed in the DB and the ack is cumulative.
func TestApplyAndAck(t *testing.T) {
	db := newTestDB(t, hsq.Options{})
	s := New(Config{DB: db})
	rc := dialRaw(t, s)
	rc.hello("sess-1")

	rc.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "api.latency"})
	rc.send(&wire.Frame{Type: wire.TypeBatch, Seq: 1, StreamID: 1, Values: []int64{1, 2, 3}})
	rc.send(&wire.Frame{Type: wire.TypeBatch, Seq: 2, StreamID: 1, Values: []int64{4, 5}})
	rc.send(&wire.Frame{Type: wire.TypeEndStep, Seq: 3, StreamID: 1})

	ack := rc.recv()
	if ack.Type != wire.TypeAck || ack.Seq != 3 {
		t.Fatalf("got %s, want ack seq=3", ack)
	}
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
	rc1.send(&wire.Frame{Type: wire.TypeFlush})
	if ack := rc1.recv(); ack.Seq != 1 {
		t.Fatalf("first conn ack = %s, want seq=1", ack)
	}
	rc1.nc.Close() //nolint:errcheck

	rc2 := dialRaw(t, s)
	w := rc2.hello("sess-r")
	if w.Seq != 1 {
		t.Fatalf("resumed welcome lastSeq = %d, want 1", w.Seq)
	}
	// Replay the already-applied frame (as a client that missed the ack
	// would), plus a new one.
	rc2.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "a"})
	rc2.send(&wire.Frame{Type: wire.TypeBatch, Seq: 1, StreamID: 1, Values: []int64{10, 20}})
	rc2.send(&wire.Frame{Type: wire.TypeBatch, Seq: 2, StreamID: 1, Values: []int64{30}})
	rc2.send(&wire.Frame{Type: wire.TypeFlush})
	if ack := rc2.recv(); ack.Seq != 2 {
		t.Fatalf("ack = %s, want seq=2", ack)
	}

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

// TestAckCadence checks the server acks at the window/4 cadence without
// any Flush frames, so client credit is replenished before it drains.
func TestAckCadence(t *testing.T) {
	s := New(Config{DB: newTestDB(t, hsq.Options{}), Window: 8})
	rc := dialRaw(t, s)
	rc.hello("sess-c")
	rc.send(&wire.Frame{Type: wire.TypeOpenStream, StreamID: 1, Name: "a"})
	for i := 1; i <= 4; i++ {
		rc.send(&wire.Frame{Type: wire.TypeBatch, Seq: uint64(i), StreamID: 1, Values: []int64{int64(i)}})
	}
	// window/4 = 2: two acks must arrive unprompted.
	if ack := rc.recv(); ack.Type != wire.TypeAck || ack.Seq != 2 {
		t.Fatalf("first ack = %s, want seq=2", ack)
	}
	if ack := rc.recv(); ack.Type != wire.TypeAck || ack.Seq != 4 {
		t.Fatalf("second ack = %s, want seq=4", ack)
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
