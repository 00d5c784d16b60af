// Quickstart: the minimal end-to-end use of the hsq engine — observe a
// stream, close time steps, and query quantiles over the union of
// historical and streaming data.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro"
)

func main() {
	dir, err := os.MkdirTemp("", "hsq-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ε = 0.01: accurate queries err by at most 1% of the *stream* size —
	// a vanishing fraction of the total as history accumulates.
	db, err := hsq.Open(hsq.Options{Epsilon: 0.01, Kappa: 10, Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	eng, err := db.Stream("quickstart")
	if err != nil {
		log.Fatal(err)
	}

	// Simulate 10 time steps of 50k elements each, then a partial stream.
	rng := rand.New(rand.NewSource(1))
	for step := 1; step <= 10; step++ {
		for i := 0; i < 50_000; i++ {
			eng.Observe(rng.Int63n(1_000_000))
		}
		us, err := eng.EndStep()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("step %2d: loaded %d elements in %v (%d block I/Os, %d merges)\n",
			step, us.BatchSize, us.TotalTime().Round(1e6), us.TotalIO(), us.Merges)
	}
	for i := 0; i < 20_000; i++ {
		eng.Observe(rng.Int63n(1_000_000))
	}

	fmt.Printf("\nhistory: %d elements, stream: %d elements\n", eng.HistCount(), eng.StreamCount())

	// Accurate queries: a few random disk reads, error ≤ ε·|stream| = 200
	// ranks out of 520k elements.
	for _, phi := range []float64{0.5, 0.95, 0.99} {
		v, qs, err := eng.Quantile(phi)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("p%02.0f = %7d   (%d disk reads, %d probes, %v)\n",
			phi*100, v, qs.RandReads, qs.Iterations, qs.Elapsed.Round(1e3))
	}

	// Quick queries: zero disk I/O, coarser guarantee (1.5·ε·N).
	quick, err := eng.Query(context.Background(), hsq.Request{Phis: []float64{0.5}, Quick: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("p50 (quick, no I/O) = %d\n", quick.Values[0])

	mu := eng.MemoryUsage()
	fmt.Printf("\nsummary memory: %d B historical + %d B stream\n", mu.HistBytes, mu.StreamBytes)
}
