package experiments

import (
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/gk"
	"repro/internal/qdigest"
)

// Fig6 reproduces "Update time vs memory" (Figures 6a-6d): per-time-step
// update cost at κ=10, broken into load / sort / merge / summary for our
// algorithm, next to the pure-streaming GK and Q-Digest update costs under
// the same warehouse-loading paradigm (which loads and merges but does not
// sort). The paper's finding: ours costs ≈1.5× pure streaming, dominated by
// sort+merge.
func Fig6(sc Scale, root string) ([]*Table, error) {
	const kappa = 10
	budgets := sc.MemBudgets()
	var tables []*Table
	for wi, wl := range sc.workloads() {
		t := &Table{
			ID:     fmt.Sprintf("fig6%c-%s", 'a'+wi, wl),
			Title:  fmt.Sprintf("Update time per step vs memory, %s, κ=%d (seconds)", wl, kappa),
			XLabel: "memory_bytes",
			Columns: []string{
				"Load", "Sort", "Merge", "Summary", "OursTotal",
				"GKTotal", "QDigestTotal",
			},
		}
		ds, err := makeDataset(wl, int64(3000+wi), sc)
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
			load, sort, merge, summary := run.avgUpdate()
			run.Close()

			gkT, err := pureStreamingUpdate(ds, sc, kappa, budget, root, "gk")
			if err != nil {
				return nil, err
			}
			qdT, err := pureStreamingUpdate(ds, sc, kappa, budget, root, "qdigest")
			if err != nil {
				return nil, err
			}
			t.AddRow(float64(budget), load, sort, merge, summary,
				load+sort+merge+summary, gkT, qdT)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// pureStreamingUpdate measures the per-step update cost of a pure-streaming
// competitor under the paper's loading paradigm: sketch insertion plus
// unsorted warehouse loading and κ-leveled merging.
func pureStreamingUpdate(ds *dataset, sc Scale, kappa int, budget int64, root, algo string) (float64, error) {
	dir, err := os.MkdirTemp(root, "plain-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	dev, err := sc.newDevice(dir)
	if err != nil {
		return 0, err
	}
	defer dev.Close()
	store := newPlainStore(dev, kappa)

	var insert func(v int64) error
	switch algo {
	case "gk":
		g, err := gk.New(gkEpsForBudget(budget, sc.TotalElements()))
		if err != nil {
			return 0, err
		}
		insert = func(v int64) error { g.Insert(v); return nil }
	case "qdigest":
		d, err := qdigest.New(qdigestEpsForBudget(budget, ds.bits), ds.bits)
		if err != nil {
			return 0, err
		}
		insert = d.Insert
	default:
		return 0, fmt.Errorf("experiments: unknown algo %q", algo)
	}

	var total time.Duration
	for _, b := range ds.batches {
		t0 := time.Now()
		for _, v := range b {
			if err := insert(v); err != nil {
				return 0, err
			}
		}
		sketch := time.Since(t0)
		load, merge, _, err := store.addBatch(b)
		if err != nil {
			return 0, err
		}
		total += sketch + load + merge
	}
	return total.Seconds() / float64(len(ds.batches)), nil
}

// Fig7 reproduces "Update time and disk accesses vs κ" (Figures 7a-7d) at a
// fixed memory budget: per-step load/sort/merge/summary times plus the
// average number of block accesses per step, overall and for merging only.
// At short horizons the κ=9-vs-10 anomaly the paper discusses appears here
// as a bump in merge I/O whenever a level-1→2 merge lands inside the run.
func Fig7(sc Scale, root string) ([]*Table, error) {
	budget := sc.MemBudgets()[len(sc.MemBudgets())/2]
	var tables []*Table
	for wi, wl := range sc.workloads() {
		t := &Table{
			ID:     fmt.Sprintf("fig7%c-%s", 'a'+wi, wl),
			Title:  fmt.Sprintf("Update time & disk accesses vs κ, %s, memory=%dB", wl, budget),
			XLabel: "kappa",
			Columns: []string{
				"Load_s", "Sort_s", "Merge_s", "Summary_s",
				"AvgDiskAccess", "AvgDiskAccessMerge",
			},
		}
		ds, err := makeDataset(wl, int64(4000+wi), sc)
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
			load, sort, merge, summary := run.avgUpdate()
			total, mergeIO := run.avgUpdateIO()
			run.Close()
			t.AddRow(float64(kappa), load, sort, merge, summary, total, mergeIO)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig8 reproduces the cumulative distribution of per-time-step disk
// accesses for κ ∈ {7, 9, 10} on the Normal dataset (Figure 8): point
// (x, y) means y percent of time steps cost at most x block accesses. The
// distribution is a staircase — most steps only pay for loading the new
// batch, a few pay level-0→1 merges, and rare steps pay a cascading
// level-1→2 merge.
func Fig8(sc Scale, root string) ([]*Table, error) {
	kappas := []int{7, 9, 10}
	budget := sc.MemBudgets()[len(sc.MemBudgets())/2]
	ds, err := makeDataset("normal", 5001, sc)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig8-normal",
		Title:   fmt.Sprintf("Cumulative %% of time steps vs disk accesses per step, normal, memory=%dB", budget),
		XLabel:  "percentile",
		Columns: []string{"kappa7_accesses", "kappa9_accesses", "kappa10_accesses"},
	}
	perKappa := make([][]uint64, len(kappas))
	for ki, kappa := range kappas {
		eps, err := planEps(budget, sc, kappa)
		if err != nil {
			return nil, err
		}
		run, err := newHybridRun(ds, sc.hybridCfg(eps, kappa, true), root)
		if err != nil {
			return nil, err
		}
		perKappa[ki] = slices.Clone(run.perStepIO)
		slices.Sort(perKappa[ki])
		run.Close()
	}
	for _, pct := range []float64{10, 25, 50, 75, 89, 90, 95, 99, 100} {
		cells := make([]float64, len(kappas))
		for ki := range kappas {
			xs := perKappa[ki]
			idx := int(pct/100*float64(len(xs))) - 1
			if idx < 0 {
				idx = 0
			}
			if idx >= len(xs) {
				idx = len(xs) - 1
			}
			cells[ki] = float64(xs[idx])
		}
		t.AddRow(pct, cells...)
	}
	return []*Table{t}, nil
}
