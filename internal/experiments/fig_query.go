package experiments

import (
	"context"
	"fmt"

	"repro"
)

// Fig9 reproduces "Query runtime and disk accesses vs memory" (Figures
// 9a-9d) at κ=10: accurate-query latency and block reads for our algorithm
// next to pure-streaming query latency. The paper's findings: our query
// time is only slightly above pure streaming, disk accesses decrease
// slightly with more memory, and runtime grows with memory because the
// in-memory summaries get bigger.
func Fig9(sc Scale, root string) ([]*Table, error) {
	const kappa = 10
	budgets := sc.MemBudgets()
	var tables []*Table
	for wi, wl := range sc.workloads() {
		t := &Table{
			ID:     fmt.Sprintf("fig9%c-%s", 'a'+wi, wl),
			Title:  fmt.Sprintf("Query runtime & disk accesses vs memory, %s, κ=%d", wl, kappa),
			XLabel: "memory_bytes",
			Columns: []string{
				"Ours_ms", "GK_ms", "QDigest_ms", "Ours_DiskAccess",
			},
		}
		ds, err := makeDataset(wl, int64(6000+wi), sc)
		if err != nil {
			return nil, err
		}
		for _, budget := range budgets {
			eps, err := planEps(budget, sc, kappa)
			if err != nil {
				return nil, err
			}
			run, err := newHybridRun(ds, sc.hybridCfg(eps, kappa, true), root)
			if err != nil {
				return nil, err
			}
			// Median over several queries at different φ to smooth noise.
			var times, reads []float64
			for _, phi := range []float64{0.25, 0.5, 0.75, 0.9, 0.95} {
				_, qs, err := run.queryAccurate(phi)
				if err != nil {
					run.Close()
					return nil, err
				}
				times = append(times, qs.Elapsed.Seconds()*1000)
				reads = append(reads, float64(qs.RandReads))
			}
			run.Close()

			gkRes, err := runGKBaseline(ds, budget, sc.TotalElements())
			if err != nil {
				return nil, err
			}
			qdRes, err := runQDigestBaseline(ds, budget)
			if err != nil {
				return nil, err
			}
			t.AddRow(float64(budget), median(times),
				gkRes.queryTime.Seconds()*1000, qdRes.queryTime.Seconds()*1000,
				median(reads))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig10 reproduces "Query runtime and disk accesses vs κ" (Figures 10a-10d)
// at a fixed memory budget. The paper's finding: both grow with κ, because
// more partitions per level means a smaller summary per partition and more
// binary-search I/O per partition.
func Fig10(sc Scale, root string) ([]*Table, error) {
	budget := sc.MemBudgets()[len(sc.MemBudgets())/2]
	var tables []*Table
	for wi, wl := range sc.workloads() {
		t := &Table{
			ID:      fmt.Sprintf("fig10%c-%s", 'a'+wi, wl),
			Title:   fmt.Sprintf("Query runtime & disk accesses vs κ, %s, memory=%dB", wl, budget),
			XLabel:  "kappa",
			Columns: []string{"Ours_ms", "Ours_DiskAccess"},
		}
		ds, err := makeDataset(wl, int64(7000+wi), sc)
		if err != nil {
			return nil, err
		}
		for _, kappa := range sc.Kappas {
			eps, err := planEps(budget, sc, kappa)
			if err != nil {
				return nil, err
			}
			run, err := newHybridRun(ds, sc.hybridCfg(eps, kappa, true), root)
			if err != nil {
				return nil, err
			}
			var times, reads []float64
			for _, phi := range []float64{0.25, 0.5, 0.75, 0.9, 0.95} {
				_, qs, err := run.queryAccurate(phi)
				if err != nil {
					run.Close()
					return nil, err
				}
				times = append(times, qs.Elapsed.Seconds()*1000)
				reads = append(reads, float64(qs.RandReads))
			}
			run.Close()
			t.AddRow(float64(kappa), median(times), median(reads))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig11 reproduces "Query cost vs window size" (Figures 11a-11b) on the
// Normal dataset for κ ∈ {3, 10}: which partition-aligned windows exist and
// what a windowed accurate query costs. The paper's findings: larger κ
// offers more window choices, and cost grows with window size.
func Fig11(sc Scale, root string) ([]*Table, error) {
	budget := sc.MemBudgets()[len(sc.MemBudgets())/2]
	var tables []*Table
	for _, kappa := range []int{3, 10} {
		t := &Table{
			ID:      fmt.Sprintf("fig11-kappa%d-normal", kappa),
			Title:   fmt.Sprintf("Windowed query cost vs window size, normal, κ=%d, memory=%dB", kappa, budget),
			XLabel:  "window_steps",
			Columns: []string{"Query_ms", "DiskAccess"},
		}
		ds, err := makeDataset("normal", int64(8000+kappa), sc)
		if err != nil {
			return nil, err
		}
		eps, err := planEps(budget, sc, kappa)
		if err != nil {
			return nil, err
		}
		run, err := newHybridRun(ds, sc.hybridCfg(eps, kappa, true), root)
		if err != nil {
			return nil, err
		}
		for _, w := range run.eng.AvailableWindows() {
			before := run.eng.DiskStats()
			a, err := run.eng.Query(context.Background(), hsq.Request{Phis: []float64{QueryPhi}, Window: w})
			if err != nil {
				run.Close()
				return nil, err
			}
			delta := run.eng.DiskStats().Sub(before)
			t.AddRow(float64(w), a.Stats.Elapsed.Seconds()*1000, float64(delta.RandReads))
		}
		run.Close()
		tables = append(tables, t)
	}
	return tables, nil
}
