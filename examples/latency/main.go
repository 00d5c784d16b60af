// Latency monitoring: the paper's first motivating application (§1).
// A web service's request latencies stream in; operators watch the median
// and tail quantiles (p95/p99) of *all traffic ever served* and of recent
// windows, comparing today's tail against history to spot regressions.
//
// The simulation runs "days" (time steps) of traffic whose base latency
// drifts and occasionally degrades, then shows how the union quantiles and
// windowed quantiles expose the regression.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"

	"repro"
)

// day simulates one day of request latencies in microseconds: log-normal
// body around base, with a heavy tail.
func day(rng *rand.Rand, base float64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		lat := math.Exp(rng.NormFloat64()*0.5 + math.Log(base))
		if rng.Float64() < 0.02 {
			lat *= 10 + rng.Float64()*20 // slow outliers: GC, cold caches
		}
		out[i] = int64(lat)
	}
	return out
}

func main() {
	dir, err := os.MkdirTemp("", "hsq-latency-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := hsq.Open(hsq.Options{Epsilon: 0.005, Kappa: 10, Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	eng, err := db.Stream("api.latency")
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))

	fmt.Println("day   base(µs)   p50      p95      p99      (over all data so far)")
	const requestsPerDay = 40_000
	for dayN := 1; dayN <= 14; dayN++ {
		base := 2000.0
		if dayN >= 12 {
			base = 3500 // regression ships on day 12
		}
		eng.ObserveSlice(day(rng, base, requestsPerDay))

		// Batch query: the combined summary is built once for all three
		// targets.
		qs, _, err := eng.Quantiles([]float64{0.50, 0.95, 0.99})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%3d   %7.0f   %6d   %6d   %6d\n", dayN, base, qs[0], qs[1], qs[2])

		if _, err := eng.EndStep(); err != nil {
			log.Fatal(err)
		}
	}

	// Compare the freshest aligned window against all-time history: the
	// regression is obvious in the window, diluted in the global view.
	fmt.Println("\nwindowed p99 (most recent partition-aligned windows):")
	wins := eng.AvailableWindows()
	for _, w := range wins {
		if w > 4 && w != wins[len(wins)-1] {
			continue // show small windows + the full horizon
		}
		a, err := eng.Query(context.Background(), hsq.Request{Phis: []float64{0.99}, Window: w})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  last %2d day(s): p99 = %d µs\n", w, a.Values[0])
	}
}
