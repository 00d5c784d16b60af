package hsqclient

import (
	"context"
	"errors"
	"net"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/disk"
	"repro/internal/ingest"
)

// harness is a live ingest server on a loopback socket over a mem DB.
type harness struct {
	db   *hsq.DB
	srv  *ingest.Server
	addr string
}

func newHarness(t *testing.T, opts hsq.Options) *harness {
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
	srv := ingest.New(ingest.Config{DB: db, Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	t.Cleanup(func() {
		srv.Shutdown(context.Background()) //nolint:errcheck
		db.Close()                         //nolint:errcheck
	})
	return &harness{db: db, srv: srv, addr: l.Addr().String()}
}

// TestObserveFlushQuery drives elements through the full client →
// server → engine path and queries them back.
func TestObserveFlushQuery(t *testing.T) {
	h := newHarness(t, hsq.Options{})
	c, err := Dial(h.addr, WithBatchSize(64))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	st := c.Stream("api.latency")
	for v := int64(1); v <= 1000; v++ {
		if err := st.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndStep(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	eng, ok := h.db.Lookup("api.latency")
	if !ok {
		t.Fatal("stream not created server-side")
	}
	if n := eng.TotalCount(); n != 1000 {
		t.Fatalf("TotalCount = %d, want 1000", n)
	}
	v, _, err := eng.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if v < 400 || v > 600 {
		t.Fatalf("median = %d, want ≈500", v)
	}
}

// TestMultiStreamOneConn checks several streams multiplex one connection
// without crosstalk.
func TestMultiStreamOneConn(t *testing.T) {
	h := newHarness(t, hsq.Options{})
	c, err := Dial(h.addr, WithBatchSize(32))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	names := []string{"a", "b", "c"}
	for i, name := range names {
		st := c.Stream(name)
		base := int64(i) * 10000
		for v := int64(0); v < 500; v++ {
			if err := st.Observe(base + v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		eng, ok := h.db.Lookup(name)
		if !ok {
			t.Fatalf("stream %q missing", name)
		}
		if n := eng.StreamCount(); n != 500 {
			t.Fatalf("stream %q count = %d, want 500", name, n)
		}
		// Values must be the stream's own range, not a sibling's.
		v, _, err := eng.Quantile(0.5)
		if err != nil {
			t.Fatal(err)
		}
		base := int64(i) * 10000
		if v < base || v >= base+500 {
			t.Fatalf("stream %q median %d outside its range [%d,%d)", name, v, base, base+500)
		}
	}
	if got := h.srv.Stats().ActiveConns; got != 1 {
		t.Fatalf("ActiveConns = %d, want 1 (streams must share the connection)", got)
	}
}

// TestReconnectReplay force-closes the server side mid-stream and checks
// the client transparently reconnects, replays unacknowledged frames, and
// no element is lost or duplicated.
func TestReconnectReplay(t *testing.T) {
	h := newHarness(t, hsq.Options{})
	c, err := Dial(h.addr, WithBatchSize(100), WithReconnectBackoff(5*time.Millisecond, 50*time.Millisecond), WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	st := c.Stream("r")
	const total = 20000
	for v := int64(0); v < total; v++ {
		if err := st.Observe(v); err != nil {
			t.Fatal(err)
		}
		if v == total/2 {
			h.srv.CloseActiveConns() // mid-batch: half the data is in flight
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	eng, _ := h.db.Lookup("r")
	if n := eng.StreamCount(); n != total {
		t.Fatalf("count after forced reconnect = %d, want %d (lost or duplicated frames)", n, total)
	}
}

// TestFatalServerError pins the poisoned-client contract: after the
// server rejects the stream, every call fails with the ServerError.
func TestFatalServerError(t *testing.T) {
	h := newHarness(t, hsq.Options{})
	c, err := Dial(h.addr, WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	st := c.Stream("bad/name") // server will reject the OpenStream
	deadline := time.Now().Add(5 * time.Second)
	for {
		err = st.Observe(1)
		if err == nil {
			err = c.Flush()
		}
		if err != nil || time.Now().After(deadline) {
			break
		}
	}
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want ServerError", err)
	}
	if err := st.Observe(2); !errors.As(err, &se) {
		t.Fatalf("after fatal error Observe = %v, want the ServerError", err)
	}
}

// TestIntervalFlush checks a partial batch is sealed and delivered by the
// flush interval without an explicit Flush call.
func TestIntervalFlush(t *testing.T) {
	h := newHarness(t, hsq.Options{})
	c, err := Dial(h.addr, WithBatchSize(1<<20), WithFlushInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	st := c.Stream("trickle")
	for v := int64(0); v < 10; v++ {
		if err := st.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if eng, ok := h.db.Lookup("trickle"); ok && eng.StreamCount() == 10 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("partial batch never arrived via interval flush")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentProducers hammers one client from many goroutines, which
// is the documented contract (all methods safe for concurrent use).
func TestConcurrentProducers(t *testing.T) {
	h := newHarness(t, hsq.Options{})
	c, err := Dial(h.addr, WithBatchSize(256))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	const (
		workers = 8
		per     = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := c.Stream("hot")
			for v := 0; v < per; v++ {
				if err := st.Observe(int64(v)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	eng, _ := h.db.Lookup("hot")
	if n := eng.StreamCount(); n != workers*per {
		t.Fatalf("count = %d, want %d", n, workers*per)
	}
}

// TestCloseDrains checks Close flushes buffered data before returning.
func TestCloseDrains(t *testing.T) {
	h := newHarness(t, hsq.Options{})
	c, err := Dial(h.addr, WithBatchSize(1<<20), WithFlushInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stream("drain")
	for v := int64(0); v < 123; v++ {
		if err := st.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	eng, _ := h.db.Lookup("drain")
	if n := eng.StreamCount(); n != 123 {
		t.Fatalf("count after Close = %d, want 123", n)
	}
	if err := st.Observe(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Observe after Close = %v, want ErrClosed", err)
	}
	if err := c.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

// TestDialFailsFast pins Dial's synchronous-handshake contract.
func TestDialFailsFast(t *testing.T) {
	// A listener that is immediately closed: dialing it must error.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() //nolint:errcheck
	if _, err := Dial(addr, WithDialTimeout(time.Second)); err == nil {
		t.Fatal("Dial to a dead address succeeded")
	}
}

// parkedWrite is a backend that parks the first level-0 partition write —
// the Create of a part- file — until release is closed.
type parkedWrite struct {
	disk.Backend
	once            sync.Once
	parked, release chan struct{}
}

func (b *parkedWrite) Create(name string) (disk.WriteHandle, error) {
	if strings.HasPrefix(path.Base(name), "part-") {
		b.once.Do(func() {
			close(b.parked)
			<-b.release
		})
	}
	return b.Backend.Create(name)
}

// TestBackpressureBlocks pins the credit path end to end: with the server's
// first level-0 write parked, its EndStep stalls the connection, and a
// producer pushing more end-steps must block rather than buffer unboundedly
// — then unblock once the write resumes.
func TestBackpressureBlocks(t *testing.T) {
	dev := &parkedWrite{Backend: disk.NewMemBackend(), parked: make(chan struct{}), release: make(chan struct{})}
	h := newHarness(t, hsq.Options{Device: dev})
	release := sync.OnceFunc(func() { close(dev.release) })
	defer release() // before the harness's cleanup, whose Close waits for the write
	c, err := Dial(h.addr, WithBatchSize(64), WithMaxQueuedFrames(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	const steps = 50
	st := c.Stream("bp")
	var sent atomic.Int64 // end-steps the producer got past
	done := make(chan error, 1)
	go func() {
		for step := 0; step < steps; step++ {
			for v := int64(0); v < 200; v++ {
				if err := st.Observe(v); err != nil {
					done <- err
					return
				}
			}
			if err := st.EndStep(); err != nil {
				done <- err
				return
			}
			sent.Add(1)
		}
		done <- c.Flush()
	}()
	<-dev.parked
	// The parked EndStep stops the connection: no more frames are read or
	// confirmed, the credit window and the client's queue fill, and the
	// producer blocks well short of its last step.
	time.Sleep(300 * time.Millisecond)
	stalled := sent.Load()
	time.Sleep(200 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("producer finished (%v) with the server's write parked", err)
	default:
	}
	if got := sent.Load(); got != stalled || got >= steps {
		t.Fatalf("producer got past %d then %d of %d end-steps with the server stalled; want it blocked", stalled, got, steps)
	}
	t.Logf("producer blocked after %d of %d end-steps", stalled, steps)
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("producer still blocked after the write resumed")
	}
	eng, _ := h.db.Lookup("bp")
	if n := eng.TotalCount(); n != 50*200 {
		t.Fatalf("count = %d, want %d", n, 50*200)
	}
	if got := eng.Steps(); got != 50 {
		t.Fatalf("steps = %d, want 50", got)
	}
}

// TestKeepaliveOutlivesIdleTimeout: a server reaping connections idle for
// 100ms keeps an idle client that pings every 20ms.
func TestKeepaliveOutlivesIdleTimeout(t *testing.T) {
	db, err := hsq.Open(hsq.Options{Epsilon: 0.05, Backend: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	srv := ingest.New(ingest.Config{DB: db, IdleTimeout: 100 * time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	t.Cleanup(func() {
		srv.Shutdown(context.Background()) //nolint:errcheck
		db.Close()                         //nolint:errcheck
	})
	c, err := Dial(l.Addr().String(), WithKeepalive(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	// Four idle timeouts with nothing to send.
	time.Sleep(400 * time.Millisecond)
	if err := c.Stream("idle").Observe(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Stats().TotalConns; n != 1 {
		t.Fatalf("%d connections, want 1: the idle client was reaped", n)
	}
}

// TestFlushCtxTimeout pins the bounded-drain escape hatch: with the
// server gone for good, FlushCtx returns the context error instead of
// waiting through reconnects forever, and a bounded-retry client's Close
// surfaces the terminal dial failure.
func TestFlushCtxTimeout(t *testing.T) {
	h := newHarness(t, hsq.Options{})
	c, err := Dial(h.addr,
		WithBatchSize(1<<20), WithFlushInterval(time.Hour),
		WithReconnectBackoff(time.Millisecond, 5*time.Millisecond),
		WithMaxReconnectAttempts(3))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stream("gone")
	for v := int64(0); v < 10; v++ {
		if err := st.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := c.FlushCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		// The reconnect budget may run out first; that terminal error is
		// an equally valid bounded outcome.
		var se *ServerError
		if err == nil || errors.As(err, &se) {
			t.Fatalf("FlushCtx = %v, want deadline or dial failure", err)
		}
	}
	if err := c.Close(); err == nil {
		t.Fatal("Close after permanent server loss = nil, want the undelivered-data error")
	}
}
