package ingest

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/hsqclient"
	"repro/internal/oracle"
)

// TestRemoteIngestEndToEnd is the full-subsystem correctness test over a
// real socket: several streams fed concurrently through one hsqclient,
// the server connection force-closed repeatedly mid-batch (exercising
// session replay), every EndStep running its merges (κ=2) on the
// connection's goroutine so the connection stalls for them, and queries
// served during ingest. At a
// flush barrier mid-run and again at the end, every stream's quantiles
// must match the exact oracle within the ε bound — i.e. remote delivery
// lost nothing, duplicated nothing, and reordered nothing.
func TestRemoteIngestEndToEnd(t *testing.T) {
	const (
		eps      = 0.05
		nStreams = 3
		steps    = 6
		perStep  = 5000
	)
	db, err := hsq.Open(hsq.Options{Epsilon: eps, Kappa: 2, Backend: "mem", BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck

	srv := New(Config{DB: db, Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)                          //nolint:errcheck
	defer srv.Shutdown(context.Background()) //nolint:errcheck

	c, err := hsqclient.Dial(l.Addr().String(),
		hsqclient.WithBatchSize(512),
		hsqclient.WithReconnectBackoff(time.Millisecond, 20*time.Millisecond),
		hsqclient.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	// Deterministic per-stream data, recorded for the oracles.
	names := make([]string, nStreams)
	data := make([][]int64, nStreams)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		vs := make([]int64, steps*perStep)
		for j := range vs {
			vs[j] = int64(i*10_000_000) + rng.Int63n(1_000_000)
		}
		data[i] = vs
	}

	// Concurrent readers: quantiles must keep being served (within ε of
	// some observed prefix — checked exactly at the barriers below; here
	// we assert they never fail).
	readersDone := make(chan struct{})
	var readerErr atomic.Value
	var readers sync.WaitGroup
	for i := 0; i < nStreams; i++ {
		readers.Add(1)
		go func(name string) {
			defer readers.Done()
			for {
				select {
				case <-readersDone:
					return
				default:
				}
				st, ok := db.Lookup(name)
				if !ok || st.TotalCount() == 0 {
					continue
				}
				if _, _, err := st.Quantile(0.9); err != nil {
					readerErr.Store(fmt.Errorf("reader %s: %w", name, err))
					return
				}
			}
		}(names[i])
	}

	// checkOracle asserts every stream's quantiles against the exact
	// multiset of the first n elements fed to it.
	checkOracle := func(label string, n int) {
		t.Helper()
		for i, name := range names {
			st, ok := db.Lookup(name)
			if !ok {
				t.Fatalf("%s: stream %q missing", label, name)
			}
			or := oracle.New(n)
			or.Add(data[i][:n]...)
			bound := int64(eps*float64(n)) + 1
			for _, phi := range []float64{0.05, 0.5, 0.95, 0.99} {
				v, _, err := st.Quantile(phi)
				if err != nil {
					t.Fatalf("%s: quantile(%s, %g): %v", label, name, phi, err)
				}
				target := max(int64(phi*float64(n)), 1)
				if spanErr := or.SpanError(target, v); spanErr > bound {
					t.Errorf("%s: %s quantile(%g)=%d rank error %d > ε·n=%d",
						label, name, phi, v, spanErr, bound)
				}
			}
		}
	}

	// Producers, one goroutine per stream, step-aligned so the barrier
	// below knows exactly what has been sent. Stream 0's producer plays
	// saboteur: once per step, mid-chunk, it force-closes every server-side
	// connection, so session replay triggers repeatedly with frames (and
	// often a partial batch) in flight. The kills happen only while
	// producers run — the flush barriers themselves run on a stable
	// connection, otherwise they could starve.
	feed := func(from, to int) {
		var wg sync.WaitGroup
		for i := range names {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				st := c.Stream(names[i])
				for s := from; s < to; s++ {
					chunk := data[i][s*perStep : (s+1)*perStep]
					for j, v := range chunk {
						if err := st.Observe(v); err != nil {
							t.Error(err)
							return
						}
						if i == 0 && j == perStep/2 {
							srv.CloseActiveConns()
						}
					}
					if err := st.EndStep(); err != nil {
						t.Error(err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
	}

	feed(0, steps/2)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Mid-ingest barrier: half the data is applied (after several forced
	// reconnects), and quantiles must already be ε-accurate. No
	// maintenance drain here — sealed-but-uninstalled steps must be
	// covered by their sorted batches.
	checkOracle("mid-ingest", (steps/2)*perStep)

	feed(steps/2, steps)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	close(readersDone)
	readers.Wait()
	if err, _ := readerErr.Load().(error); err != nil {
		t.Fatal(err)
	}

	for _, name := range names {
		st, _ := db.Lookup(name)
		if err := st.SyncMaintenance(); err != nil {
			t.Fatal(err)
		}
		if n := st.TotalCount(); n != int64(steps*perStep) {
			t.Fatalf("stream %q count = %d, want %d (replay lost or duplicated data)",
				name, n, steps*perStep)
		}
		if got := st.Steps(); got != steps {
			t.Fatalf("stream %q steps = %d, want %d", name, got, steps)
		}
	}
	checkOracle("final", steps*perStep)

	stats := srv.Stats()
	if stats.Values != uint64(nStreams*steps*perStep) {
		t.Errorf("server applied %d values, want exactly %d (dedupe broken?)",
			stats.Values, nStreams*steps*perStep)
	}
	if stats.TotalConns < 2 {
		t.Errorf("TotalConns = %d; chaos never forced a reconnect?", stats.TotalConns)
	}
	t.Logf("e2e: %d conns, %d frames (%d dup), %d values",
		stats.TotalConns, stats.Frames, stats.DupFrames, stats.Values)
}
