package sender

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// script is an ingest server the test drives frame by frame, one accepted
// connection at a time.
type script struct {
	t     *testing.T
	addr  string
	conns chan net.Conn
}

func newScript(t *testing.T) *script {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sc := &script{t: t, addr: ln.Addr().String(), conns: make(chan net.Conn, 4)}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				close(sc.conns)
				return
			}
			sc.conns <- nc
		}
	}()
	t.Cleanup(func() { ln.Close() }) //nolint:errcheck
	return sc
}

// sender starts a Sender on the script's address with test-sized timers.
func (sc *script) sender() *Sender {
	s := New(Config{Addrs: []string{sc.addr}, Session: "s", DialTimeout: 5 * time.Second,
		BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond})
	sc.t.Cleanup(func() { s.Close(errors.New("test over")) })
	return s
}

// peer is the server side of one connection.
type peer struct {
	t  *testing.T
	nc net.Conn
	r  *wire.Reader
	w  *wire.Writer
}

// accept takes the next connection and answers its Hello with a v2
// Welcome granting credit and restating marks.
func (sc *script) accept(credit uint64, marks ...wire.StreamSeq) *peer {
	sc.t.Helper()
	var nc net.Conn
	select {
	case nc = <-sc.conns:
	case <-time.After(10 * time.Second):
		sc.t.Fatal("the sender never connected")
	}
	sc.t.Cleanup(func() { nc.Close() }) //nolint:errcheck
	p := &peer{t: sc.t, nc: nc, r: wire.NewReader(nc), w: wire.NewWriter(nc)}
	if f := p.read(); f.Type != wire.TypeHello || f.Session != "s" {
		sc.t.Fatalf("first frame %v, want the session's Hello", f)
	}
	p.send(&wire.Frame{Type: wire.TypeWelcome, Version: wire.Version, Credit: credit, StreamSeqs: marks})
	return p
}

func (p *peer) read() *wire.Frame {
	p.t.Helper()
	p.nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	f, err := p.r.ReadFrame()
	if err != nil {
		p.t.Fatalf("server read: %v", err)
	}
	return f
}

func (p *peer) send(f *wire.Frame) {
	p.t.Helper()
	if err := p.w.WriteFrame(f); err != nil {
		p.t.Fatal(err)
	}
	if err := p.w.Flush(); err != nil {
		p.t.Fatal(err)
	}
}

// expect reads the next frame and checks its type and, for a sequenced
// frame or a binding, its sequence number or name. It returns the frame.
func (p *peer) expect(typ byte, seq uint64, name string) *wire.Frame {
	p.t.Helper()
	f := p.read()
	if f.Type != typ || f.Sequenced() && f.Seq != seq || typ == wire.TypeOpenStream && f.Name != name {
		p.t.Fatalf("server read %v, want %s seq %d %q", f, wire.TypeName(typ), seq, name)
	}
	return f
}

func batch(stream string, seq uint64) Item {
	return Item{Stream: stream, F: &wire.Frame{Type: wire.TypeBatch, Seq: seq, Values: []int64{int64(seq)}}}
}

// waitAsync runs Wait(seq) on its own goroutine.
func waitAsync(s *Sender, seq uint64) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- s.Wait(context.Background(), seq) }()
	return ch
}

func recv(t *testing.T, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return")
		return nil
	}
}

// TestAckIsNotConfirmation: the server applies A:10, acknowledges it
// cumulatively and hangs up before reading B:5. A cumulative ack would
// confirm B:5 too; the barrier scheme must replay B:5 on the next
// connection and hold Wait(10) until B:5 is confirmed there.
func TestAckIsNotConfirmation(t *testing.T) {
	sc := newScript(t)
	s := sc.sender()
	if err := s.Send(batch("A", 10), batch("B", 5)); err != nil {
		t.Fatal(err)
	}
	waited := waitAsync(s, 10)

	p := sc.accept(64)
	p.expect(wire.TypeOpenStream, 0, "A")
	p.expect(wire.TypeBatch, 10, "")
	p.send(&wire.Frame{Type: wire.TypeAck, Seq: 10, Credit: 64})
	p.nc.Close() //nolint:errcheck

	p = sc.accept(64, wire.StreamSeq{Name: "A", Seq: 10})
	p.expectFlush(10)
	p.expect(wire.TypeOpenStream, 0, "B")
	p.expect(wire.TypeBatch, 5, "")
	ping := p.expect(wire.TypePing, 0, "")
	p.send(&wire.Frame{Type: wire.TypeAck, Seq: 10, Credit: 64}) // the Flush's: A:10 is confirmed
	select {
	case err := <-waited:
		t.Fatalf("Wait(10) returned %v before B:5 was confirmed", err)
	default:
	}
	p.send(&wire.Frame{Type: wire.TypePong, Seq: ping.Seq})
	if err := recv(t, waited); err != nil {
		t.Fatal(err)
	}
}

// expectFlush reads the Flush a sender writes first on a connection whose
// Welcome pruned frames, and checks it names the newest of them.
func (p *peer) expectFlush(seq uint64) {
	p.t.Helper()
	if f := p.read(); f.Type != wire.TypeFlush || f.Seq != seq {
		p.t.Fatalf("server read %v, want a Flush for seq %d", f, seq)
	}
}

// TestWelcomePrunesPerStream: marks {A:10} prune A's frames up to 10, which
// are not written and count confirmed once the Ack of the Flush written for
// them covers 10 — not before, since the Ping on the new connection covers
// only what is written there. B's frames, below 10 but of another stream,
// go out.
func TestWelcomePrunesPerStream(t *testing.T) {
	sc := newScript(t)
	s := sc.sender()
	if err := s.Send(batch("A", 9), batch("A", 10), batch("A", 11), batch("B", 3)); err != nil {
		t.Fatal(err)
	}
	p := sc.accept(64, wire.StreamSeq{Name: "A", Seq: 10})
	p.expectFlush(10)
	p.expect(wire.TypeOpenStream, 0, "A")
	p.expect(wire.TypeBatch, 11, "")
	p.expect(wire.TypeOpenStream, 0, "B")
	p.expect(wire.TypeBatch, 3, "")
	ping := p.expect(wire.TypePing, 0, "")
	p.send(&wire.Frame{Type: wire.TypePong, Seq: ping.Seq})
	if err := s.Wait(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if pending, confirmed, _ := s.Stats(); pending != 2 || confirmed != 2 {
		t.Fatalf("after the Pong: pending %d, confirmed %d; want 2 (the pruned) and 2", pending, confirmed)
	}
	p.send(&wire.Frame{Type: wire.TypeAck, Seq: 10, Credit: 64})
	if err := s.Wait(context.Background(), 11); err != nil {
		t.Fatal(err)
	}
	if pending, confirmed, _ := s.Stats(); pending != 0 || confirmed != 4 {
		t.Fatalf("after the Ack: pending %d, confirmed %d; want 0 and 4", pending, confirmed)
	}
}

// TestPrunedFramesReplayWithoutAck: the connection dies before the Flush's
// Ack, and the next server (restarted, so its Welcome restates no marks)
// must get the pruned frames replayed, ahead of the stream's later ones.
func TestPrunedFramesReplayWithoutAck(t *testing.T) {
	sc := newScript(t)
	s := sc.sender()
	if err := s.Send(batch("A", 9), batch("A", 10), batch("A", 11)); err != nil {
		t.Fatal(err)
	}
	waited := waitAsync(s, 11)
	p := sc.accept(64, wire.StreamSeq{Name: "A", Seq: 10})
	p.expectFlush(10)
	p.expect(wire.TypeOpenStream, 0, "A")
	p.expect(wire.TypeBatch, 11, "")
	p.nc.Close() //nolint:errcheck

	p = sc.accept(64)
	p.expect(wire.TypeOpenStream, 0, "A")
	p.expect(wire.TypeBatch, 9, "")
	p.expect(wire.TypeBatch, 10, "")
	p.expect(wire.TypeBatch, 11, "")
	ping := p.expect(wire.TypePing, 0, "")
	p.send(&wire.Frame{Type: wire.TypePong, Seq: ping.Seq})
	if err := recv(t, waited); err != nil {
		t.Fatal(err)
	}
}

// TestCreditBoundsFlight: with a window of 8 and 40 frames queued, the
// server answers a Ping only once 8 frames stand unconfirmed (or all 40
// are in). The sender must never have more than 8 out, and must ping
// before it stalls on the window — at least once per window.
func TestCreditBoundsFlight(t *testing.T) {
	const credit, total = 8, 40
	sc := newScript(t)
	s := sc.sender()
	for seq := uint64(1); seq <= total; seq++ {
		if err := s.Send(batch("A", seq)); err != nil {
			t.Fatal(err)
		}
	}
	p := sc.accept(credit)
	read, covered, pings := 0, 0, 0
	for covered < total {
		f := p.read()
		switch {
		case f.Sequenced():
			read++
			if read-covered > credit {
				t.Fatalf("%d frames unconfirmed, window %d", read-covered, credit)
			}
		case f.Type == wire.TypePing:
			pings++
			if read-covered == credit || read == total {
				p.send(&wire.Frame{Type: wire.TypePong, Seq: f.Seq})
				covered = read
			}
		}
	}
	if err := s.Wait(context.Background(), total); err != nil {
		t.Fatal(err)
	}
	if pings < total/credit {
		t.Fatalf("%d pings for %d frames in a window of %d, want ≥ %d", pings, total, credit, total/credit)
	}
}

// TestEncodeErrorFailsOnlyItsFrame: a batch too large to encode and an
// oversized Subscribe fail alone. The connection stays up, the frames
// around them are delivered, and the first Wait covering the batch reports
// it; the unsequenced Subscribe is skipped.
func TestEncodeErrorFailsOnlyItsFrame(t *testing.T) {
	sc := newScript(t)
	s := sc.sender()
	big := make([]int64, wire.MaxFrameSize/4)
	for i := range big {
		big[i] = int64(i%2) << 60 // every delta a nine-byte varint
	}
	if err := s.Send(
		batch("A", 1),
		Item{Stream: "A", F: &wire.Frame{Type: wire.TypeBatch, Seq: 2, Values: big}},
		Item{Stream: "A", F: &wire.Frame{Type: wire.TypeEndStep, Seq: 3}},
		Item{F: &wire.Frame{Type: wire.TypeSubscribe, StreamID: 1, Data: make([]byte, wire.MaxFrameSize)}},
	); err != nil {
		t.Fatal(err)
	}
	p := sc.accept(64)
	p.expect(wire.TypeOpenStream, 0, "A")
	p.expect(wire.TypeBatch, 1, "")
	p.expect(wire.TypeEndStep, 3, "")
	ping := p.expect(wire.TypePing, 0, "")
	p.send(&wire.Frame{Type: wire.TypePong, Seq: ping.Seq})

	if err := s.Wait(context.Background(), 3); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("Wait(3) = %v, want the encode error of seq 2", err)
	}
	if err := s.Wait(context.Background(), 3); err != nil {
		t.Fatalf("second Wait(3) = %v, want nil: the failure is reported once", err)
	}
	if _, _, dropped := s.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	// Same connection, next frame.
	if err := s.Send(batch("A", 4)); err != nil {
		t.Fatal(err)
	}
	p.expect(wire.TypeBatch, 4, "")
}

// TestGiveUpOncePerOutage: after DownAfter of failed dials the sender gives
// up on its frames, and until the target confirms something again it gives
// up at the next failure instead of holding each later frame for another
// DownAfter — a waiter on a dead target pays the give-up once per outage.
func TestGiveUpOncePerOutage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //nolint:errcheck // nothing listens there now
	const downAfter = 300 * time.Millisecond
	gaveUp := 0
	s := New(Config{Addrs: []string{addr}, Session: "s", DialTimeout: time.Second,
		BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond, DownAfter: downAfter,
		GiveUp: func(error, []*Item) ([]*Item, error) { gaveUp++; return nil, nil }})
	defer s.Close(errors.New("test over"))
	for seq := uint64(1); seq <= 3; seq++ {
		start := time.Now()
		if err := s.Send(batch("A", seq)); err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(context.Background(), seq); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); seq == 1 && d < downAfter || seq > 1 && d > downAfter/2 {
			t.Fatalf("frame %d given up after %v (DownAfter %v): want the full wait once, then none", seq, d, downAfter)
		}
	}
	if _, _, dropped := s.Stats(); dropped != 0 || gaveUp < 3 {
		t.Fatalf("GiveUp ran %d times, encoder refusals %d; want ≥ 3 and 0", gaveUp, dropped)
	}
}
