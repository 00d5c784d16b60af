// Command multistream demonstrates the multi-stream hsq.DB: three
// per-endpoint latency streams multiplexed over one warehouse device and
// one shared block-cache budget, answering the classic p50/p95/p99
// dashboard query per endpoint with per-stream and device-wide I/O
// accounting.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro"
)

func main() {
	dir, err := os.MkdirTemp("", "hsq-multistream-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// One DB: one device, one cache budget, one manifest root.
	db, err := hsq.Open(hsq.Options{
		Epsilon:     0.01,
		Kappa:       10,
		Dir:         dir,
		CacheBlocks: 1024,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Stream names are one namespace segment: letters, digits, '.', '_',
	// '-' (they become directories under <dir>/streams/).
	endpoints := []struct {
		name string
		base float64 // log-normal-ish latency scale in µs
	}{
		{"get.users", 800},
		{"post.orders", 2500},
		{"get.search", 12000},
	}

	// Simulate a few time steps of traffic per endpoint.
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 5; step++ {
		for _, ep := range endpoints {
			st, err := db.Stream(ep.name)
			if err != nil {
				log.Fatal(err)
			}
			for i := 0; i < 20000; i++ {
				// Right-skewed latencies: base × exp(noise).
				lat := int64(ep.base * (0.5 + rng.ExpFloat64()))
				st.Observe(lat)
			}
			if _, err := st.EndStep(); err != nil {
				log.Fatal(err)
			}
		}
	}

	// The dashboard: p50/p95/p99 per endpoint, batched per stream.
	fmt.Printf("%-14s %10s %10s %10s %12s\n", "endpoint", "p50(µs)", "p95(µs)", "p99(µs)", "disk reads")
	for _, ep := range endpoints {
		st, err := db.Stream(ep.name)
		if err != nil {
			log.Fatal(err)
		}
		vals, qs, err := st.Quantiles([]float64{0.5, 0.95, 0.99})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10d %10d %10d %12d\n", ep.name, vals[0], vals[1], vals[2], qs.RandReads)
	}

	// Per-stream I/O sums to the device aggregate: many tenants, one
	// accountable device.
	fmt.Println()
	for _, name := range db.Streams() {
		st, _ := db.Lookup(name)
		io := st.DiskStats()
		fmt.Printf("stream %-14s randReads=%-5d cacheHits=%-5d seqWrites=%d\n",
			name, io.RandReads, io.CacheHits, io.SeqWrites)
	}
	agg := db.DiskStats()
	fmt.Printf("device %-14s randReads=%-5d cacheHits=%-5d seqWrites=%d\n",
		"(aggregate)", agg.RandReads, agg.CacheHits, agg.SeqWrites)
}
