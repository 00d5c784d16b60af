// Command hsqbench regenerates the paper's evaluation figures and the
// repository's ablations at a chosen scale. It reproduces the paper; what
// the extensions cost is measured by benchmark/ (bash benchmark/run.sh).
//
// Usage:
//
//	hsqbench [-figure all|4|5|...|13|ablation-split|ablation-pinning|ablation-iobudget|baselines|theory]
//	         [-scale small|medium|large] [-backend file|mem] [-cache-blocks N]
//	         [-out results/] [-list]
//
// Each figure prints one aligned text table per panel (matching the paper's
// figure layout) and, with -out, writes one CSV per panel.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "hsqbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		figure  = flag.String("figure", "all", "figure id to regenerate, or 'all'")
		scale   = flag.String("scale", "medium", "experiment scale: small|medium|large")
		backend = flag.String("backend", "file", "warehouse storage backend: file|mem")
		cache   = flag.Int("cache-blocks", 0, "block-cache capacity in blocks (0 = no cache)")
		out     = flag.String("out", "", "directory for CSV output (optional)")
		list    = flag.Bool("list", false, "list available figures and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.FigureIDs() {
			fmt.Println(id)
		}
		return nil
	}
	sc, err := experiments.ScaleByName(*scale)
	if err != nil {
		return err
	}
	sc.Backend = *backend
	sc.CacheBlocks = *cache
	ids := []string{*figure}
	if *figure == "all" {
		ids = experiments.FigureIDs()
	}
	for _, id := range ids {
		if err := experiments.Run(id, sc, os.Stdout, *out); err != nil {
			return err
		}
	}
	return nil
}
