// Command remote demonstrates the remote ingest subsystem end to end in
// one process: an hsq.DB behind an ingest listener (the server half of
// `hsqd -ingest-addr`), fed over a real TCP socket by the hsqclient
// batching SDK — two streams multiplexed on one connection, an
// end-of-step marker, a Flush barrier, and quantile queries against the
// data that just arrived.
//
// Against a separately running daemon the client half is identical:
//
//	hsqd -dir /var/lib/hsq -epsilon 0.001 -ingest-addr :9090 &
//	... hsqclient.Dial("localhost:9090") ...
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"

	"repro"
	"repro/hsqclient"
	"repro/internal/ingest"
)

func main() {
	// Server half: a volatile DB behind an ingest listener on a loopback
	// port. Each end-of-step runs its merges before the server confirms it,
	// and the client's credit window carries that stall back to Observe.
	db, err := hsq.Open(hsq.Options{Epsilon: 0.01, Backend: "mem"})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	srv := ingest.New(ingest.Config{DB: db})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Shutdown(context.Background())
	fmt.Printf("ingest listener on %s\n", l.Addr())

	// Client half: one connection, two streams, batched transparently.
	c, err := hsqclient.Dial(l.Addr().String(), hsqclient.WithBatchSize(4096))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	lat := c.Stream("api.latency")
	size := c.Stream("api.size")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200_000; i++ {
		// Log-normal-ish latencies in µs, heavy-tailed sizes in bytes.
		if err := lat.Observe(50 + rng.Int63n(1000)*rng.Int63n(1000)/1000); err != nil {
			log.Fatal(err)
		}
		if err := size.Observe(1 << (7 + rng.Intn(12))); err != nil {
			log.Fatal(err)
		}
	}
	if err := lat.EndStep(); err != nil { // close the day's first time step
		log.Fatal(err)
	}

	// Flush is the delivery barrier: after it returns, every Observe
	// above has been applied server-side (exactly once, even if the
	// connection had dropped and replayed mid-run).
	if err := c.Flush(); err != nil {
		log.Fatal(err)
	}

	for _, name := range []string{"api.latency", "api.size"} {
		st, ok := db.Lookup(name)
		if !ok {
			log.Fatalf("stream %s missing", name)
		}
		fmt.Printf("%-12s n=%d", name, st.TotalCount())
		for _, phi := range []float64{0.5, 0.95, 0.99} {
			v, _, err := st.Quantile(phi)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  p%g=%d", phi*100, v)
		}
		fmt.Println()
	}

	stats := srv.Stats()
	fmt.Printf("wire: %d conn(s), %d frames, %d values — vs %d HTTP round trips it replaced\n",
		stats.TotalConns, stats.Frames, stats.Values, stats.Values)
}
