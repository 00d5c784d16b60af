// Network monitoring: the paper's network-trace setting (§1, §3.1) — a
// peering-link packet stream of source-destination pairs, archived hourly
// into a warehouse. Quantiles over the packed (src,dst) keys describe how
// traffic concentrates across the flow space; comparing the live hour's
// distribution against history flags shifts such as a new heavy flow
// (e.g. a DDoS source or a misconfigured batch job).
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "hsq-netmon-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := hsq.Open(hsq.Options{Epsilon: 0.01, Kappa: 10, Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	eng, err := db.Stream("flows")
	if err != nil {
		log.Fatal(err)
	}

	gen := workload.NewNetTrace(42)
	const packetsPerHour = 60_000

	// Archive 24 "hours" of traffic.
	for hour := 1; hour <= 24; hour++ {
		eng.ObserveSlice(workload.Fill(gen, packetsPerHour))
		us, err := eng.EndStep()
		if err != nil {
			log.Fatal(err)
		}
		if hour%6 == 0 {
			fmt.Printf("hour %2d archived (%d partitions on disk, %d block I/Os this step)\n",
				hour, eng.PartitionCount(), us.TotalIO())
		}
	}

	// The live hour streams in. Quartiles of the flow-key distribution over
	// history+stream:
	eng.ObserveSlice(workload.Fill(gen, packetsPerHour/2))
	fmt.Printf("\n%d archived packets + %d live packets\n", eng.HistCount(), eng.StreamCount())

	fmt.Println("\nflow-key distribution (src<<16|dst), union of history and live traffic:")
	for _, phi := range []float64{0.25, 0.5, 0.75, 0.9, 0.99} {
		v, qs, err := eng.Quantile(phi)
		if err != nil {
			log.Fatal(err)
		}
		src, dst := v>>16, v&0xFFFF
		fmt.Printf("  q%-4.2f key=%-12d (src=%-5d dst=%-5d)  [%d disk reads]\n",
			phi, v, src, dst, qs.RandReads)
	}

	// Windowed comparison: is the last 6 hours' median flow the same as the
	// all-time one? A shift means traffic is concentrating somewhere new.
	fmt.Println("\nmedian flow key by window:")
	for _, w := range eng.AvailableWindows() {
		a, err := eng.Query(context.Background(), hsq.Request{Phis: []float64{0.5}, Window: w})
		if err != nil {
			log.Fatal(err)
		}
		v := a.Values[0]
		fmt.Printf("  last %2d hour(s): median key = %d (src %d)\n", w, v, v>>16)
	}
}
