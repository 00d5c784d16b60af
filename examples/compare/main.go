// Compare: the paper's headline claim on one screen — at equal summary
// memory, the hybrid engine answers quantile queries on history+stream far
// more accurately than the best pure-streaming sketches (Greenwald-Khanna
// and Q-Digest), at the cost of a handful of random disk reads.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"repro"
	"repro/internal/gk"
	"repro/internal/oracle"
	"repro/internal/qdigest"
	"repro/internal/workload"
)

const (
	steps     = 40
	batchSize = 25_000
	streamLen = 25_000
	budget    = int64(48 << 10) // 48 KB of summary memory for every method
)

func main() {
	gen := workload.NewUniform(99)
	orc := oracle.New(steps*batchSize + streamLen)
	batches := make([][]int64, steps)
	for i := range batches {
		batches[i] = workload.Fill(gen, batchSize)
		orc.Add(batches[i]...)
	}
	stream := workload.Fill(gen, streamLen)
	orc.Add(stream...)
	n := float64(orc.Count())

	// --- hybrid engine, ε planned for the budget (half HS, half SS) ---
	dir, err := os.MkdirTemp("", "hsq-compare-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	eps, err := hsq.Plan(budget, streamLen, steps, 10)
	if err != nil {
		log.Fatal(err)
	}
	db, err := hsq.Open(hsq.Options{Epsilon: eps, Kappa: 10, Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	eng, err := db.Stream("hybrid")
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range batches {
		eng.ObserveSlice(b)
		if _, err := eng.EndStep(); err != nil {
			log.Fatal(err)
		}
	}
	eng.ObserveSlice(stream)

	// --- pure-streaming competitors at the same budget ---
	// GK: 24 bytes/tuple; solve (1/2ε)·log₂(2εN) tuples = budget.
	gkEps := solveGKEps(budget, int64(n))
	gkSketch := gk.MustNew(gkEps)
	// Q-Digest: 48 bytes/node, bits/ε nodes.
	qdEps := 48 * float64(30) / float64(budget)
	qd := qdigest.MustNew(qdEps, 30)
	for _, b := range batches {
		for _, v := range b {
			gkSketch.Insert(v)
			if err := qd.Insert(v); err != nil {
				log.Fatal(err)
			}
		}
	}
	for _, v := range stream {
		gkSketch.Insert(v)
		if err := qd.Insert(v); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("dataset: %d historical + %d streaming elements (uniform)\n", steps*batchSize, streamLen)
	fmt.Printf("summary budget per method: %d KB\n\n", budget>>10)
	fmt.Println("phi    hybrid-accurate    hybrid-quick       GK                 QDigest")
	for _, phi := range []float64{0.25, 0.5, 0.9, 0.99} {
		av, qs, err := eng.Quantile(phi)
		if err != nil {
			log.Fatal(err)
		}
		quick, err := eng.Query(context.Background(), hsq.Request{Phis: []float64{phi}, Quick: true})
		if err != nil {
			log.Fatal(err)
		}
		qv := quick.Values[0]
		gv, _ := gkSketch.Quantile(phi)
		dv, _ := qd.Quantile(phi)
		fmt.Printf("%.2f   %-18s %-18s %-18s %-18s\n", phi,
			relErr(orc, phi, av)+fmt.Sprintf(" (%dIO)", qs.RandReads),
			relErr(orc, phi, qv), relErr(orc, phi, gv), relErr(orc, phi, dv))
	}
	mu := eng.MemoryUsage()
	fmt.Printf("\nactual memory — hybrid: %d B, GK: %d B, QDigest: %d B\n",
		mu.Total(), gkSketch.MaxMemoryBytes(), qd.MaxMemoryBytes())
	fmt.Println("(cells are relative error |r - rank(answer)| / (φN); lower is better)")
}

func relErr(orc *oracle.Oracle, phi float64, v int64) string {
	return fmt.Sprintf("%.2e", orc.RelativeError(phi, v))
}

func solveGKEps(budget, n int64) float64 {
	lo, hi := 1e-9, 0.5
	f := func(eps float64) float64 {
		t := (1 / (2 * eps)) * math.Max(1, math.Log2(math.Max(2, 2*eps*float64(n))))
		return 24*t - float64(budget)
	}
	if f(hi) > 0 {
		return hi
	}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if f(mid) <= 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
