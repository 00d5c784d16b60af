package experiments

import (
	"context"
	"fmt"
	"math"

	"repro"
)

// AblationSplit sweeps the memory split between the historical summary HS
// and the stream summary SS at a fixed total budget. The paper fixes a
// 50/50 split and notes it is within 2× of optimal (§3.1); this ablation
// maps the actual tradeoff. The split determines two ε values: the engine
// runs at the weaker (larger) one to stay faithful to a single-ε engine,
// so the table reports achieved error and the two planned ε values.
func AblationSplit(sc Scale, root string) ([]*Table, error) {
	const kappa = 10
	budget := sc.MemBudgets()[len(sc.MemBudgets())/2]
	t := &Table{
		ID:      "ablation-split-normal",
		Title:   fmt.Sprintf("Memory split HS:SS ablation, normal, κ=%d, budget=%dB", kappa, budget),
		XLabel:  "hist_fraction",
		Columns: []string{"RelErr", "PlannedEps"},
	}
	ds, err := makeDataset("normal", 9501, sc)
	if err != nil {
		return nil, err
	}
	for _, f := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		histBudget := f * float64(budget)
		streamBudget := (1 - f) * float64(budget)
		epsHS := epsForHistBudget(histBudget, sc.Steps, kappa)
		epsSS := epsForStreamBudget(streamBudget, int64(sc.StreamSize))
		eps := math.Max(epsHS, epsSS)
		if eps >= 0.5 {
			t.AddRow(f, math.NaN(), eps)
			continue
		}
		run, err := newHybridRun(ds, sc.hybridCfg(eps, kappa, true), root)
		if err != nil {
			return nil, err
		}
		v, _, err := run.queryAccurate(QueryPhi)
		run.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow(f, ds.orc.RelativeSpanError(QueryPhi, v), eps)
	}
	return []*Table{t}, nil
}

func epsForHistBudget(budget float64, steps, kappa int) float64 {
	lo, hi := 1e-9, 0.5
	f := func(eps float64) float64 { return hsq.PlannedHistBytes(eps, steps, kappa) - budget }
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

func epsForStreamBudget(budget float64, m int64) float64 {
	lo, hi := 1e-9, 0.5
	f := func(eps float64) float64 { return hsq.PlannedStreamBytes(eps, m) - budget }
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

// AblationPinning measures the §2.4 block-pinning optimization: accurate
// query disk reads and latency with and without pinning the final block of
// each partition's search range.
func AblationPinning(sc Scale, root string) ([]*Table, error) {
	const kappa = 10
	budget := sc.MemBudgets()[len(sc.MemBudgets())/2]
	t := &Table{
		ID:      "ablation-pinning-normal",
		Title:   fmt.Sprintf("Block pinning ablation, normal, κ=%d, budget=%dB", kappa, budget),
		XLabel:  "pin",
		Columns: []string{"Query_DiskAccess", "Query_ms"},
	}
	ds, err := makeDataset("normal", 9601, sc)
	if err != nil {
		return nil, err
	}
	eps, err := planEps(budget, sc, kappa)
	if err != nil {
		return nil, err
	}
	for pi, pin := range []bool{false, true} {
		run, err := newHybridRun(ds, sc.hybridCfg(eps, kappa, pin), root)
		if err != nil {
			return nil, err
		}
		var reads, times []float64
		for _, phi := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			_, qs, err := run.queryAccurate(phi)
			if err != nil {
				run.Close()
				return nil, err
			}
			reads = append(reads, float64(qs.RandReads))
			times = append(times, qs.Elapsed.Seconds()*1000)
		}
		run.Close()
		t.AddRow(float64(pi), median(reads), median(times))
	}
	return []*Table{t}, nil
}

// AblationBaselines compares all pure-streaming competitors (GK, Q-Digest,
// RANDOM sampling) plus our two responses at one memory budget across all
// datasets — the "who stands where" summary behind Figure 4.
func AblationBaselines(sc Scale, root string) ([]*Table, error) {
	const kappa = 10
	budget := sc.MemBudgets()[len(sc.MemBudgets())/2]
	t := &Table{
		ID:      "ablation-baselines",
		Title:   fmt.Sprintf("All methods at budget=%dB (relative error; rows: datasets in panel order)", budget),
		XLabel:  "dataset_idx",
		Columns: []string{"Accurate", "Quick", "GK", "QDigest", "MRL", "RANDOM"},
	}
	for wi, wl := range sc.workloads() {
		ds, err := makeDataset(wl, int64(9700+wi), sc)
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
		av, _, err := run.queryAccurate(QueryPhi)
		if err != nil {
			run.Close()
			return nil, err
		}
		qv, _, err := run.queryQuick(QueryPhi)
		run.Close()
		if err != nil {
			return nil, err
		}
		gkRes, err := runGKBaseline(ds, budget, sc.TotalElements())
		if err != nil {
			return nil, err
		}
		qdRes, err := runQDigestBaseline(ds, budget)
		if err != nil {
			return nil, err
		}
		smRes, err := runSampleBaseline(ds, budget, int64(97+wi))
		if err != nil {
			return nil, err
		}
		mrlRes, err := runMRLBaseline(ds, budget, int64(197+wi))
		if err != nil {
			return nil, err
		}
		t.AddRow(float64(wi),
			ds.orc.RelativeSpanError(QueryPhi, av),
			ds.orc.RelativeSpanError(QueryPhi, qv),
			gkRes.relErr, qdRes.relErr, mrlRes.relErr, smRes.relErr)
	}
	return []*Table{t}, nil
}

// TheoryTable reproduces the paper's §2.4 back-of-envelope: measured query
// disk accesses against Lemma 7 and the held historical summary against
// Plan's Lemma 8 model, for the configured scale. The live step is held
// raw, a batch Lemma 9's sketch model does not describe, so its bytes are a
// column of their own.
func TheoryTable(sc Scale, root string) ([]*Table, error) {
	const kappa = 10
	budget := sc.MemBudgets()[len(sc.MemBudgets())/2]
	t := &Table{
		ID:      "theory-normal",
		Title:   "Measured vs Lemma 7 query I/O and Observation 1 memory (normal)",
		XLabel:  "row",
		Columns: []string{"MeasuredQueryIO", "Lemma7Bound", "HistBytes", "PlannedHistBytes", "LiveBatchBytes"},
	}
	ds, err := makeDataset("normal", 9801, sc)
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
	var reads []float64
	for _, phi := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		_, qs, err := run.queryAccurate(phi)
		if err != nil {
			run.Close()
			return nil, err
		}
		reads = append(reads, float64(qs.RandReads))
	}
	mem := run.eng.MemoryUsage()
	run.Close()

	n := float64(sc.Steps) * float64(sc.BatchSize)
	blocks := n * 8 / float64(sc.BlockSize)
	logKT := math.Log(float64(sc.Steps)) / math.Log(kappa)
	// Lemma 7: O(log_κ T · log(n/B) · log|U|); we charge constant 1 and
	// log|U| = universe bits of the workload.
	bound := logKT * math.Log2(math.Max(2, blocks)) * float64(ds.bits)
	t.AddRow(0, median(reads), bound, float64(mem.HistBytes), hsq.PlannedHistBytes(eps, sc.Steps, kappa), float64(mem.StreamBytes))
	return []*Table{t}, nil
}

// AblationIOBudget maps the conclusion's third tradeoff axis: fix memory,
// cap the random reads an accurate query may spend, and measure the error.
// A cap of zero means unlimited. Error falls steeply with the first few
// reads and flattens once the cap passes the natural query cost.
func AblationIOBudget(sc Scale, root string) ([]*Table, error) {
	const kappa = 10
	budget := sc.MemBudgets()[len(sc.MemBudgets())/2]
	t := &Table{
		ID:      "ablation-iobudget-normal",
		Title:   fmt.Sprintf("Accuracy vs query I/O cap, normal, κ=%d, budget=%dB", kappa, budget),
		XLabel:  "max_reads",
		Columns: []string{"RelErr", "ActualReads", "Truncated"},
	}
	ds, err := makeDataset("normal", 9901, sc)
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
	defer run.Close()
	for _, cap := range []int{1, 2, 4, 8, 16, 32, 64, 0} {
		var errs, reads, trunc []float64
		for _, phi := range []float64{0.13, 0.31, 0.5, 0.77, 0.9} {
			a, err := run.eng.Query(context.Background(), hsq.Request{Phis: []float64{phi}, MaxReads: cap})
			if err != nil {
				return nil, err
			}
			v, qs := a.Values[0], a.Stats
			errs = append(errs, ds.orc.RelativeSpanError(phi, v))
			reads = append(reads, float64(qs.RandReads))
			if qs.Truncated {
				trunc = append(trunc, 1)
			} else {
				trunc = append(trunc, 0)
			}
		}
		t.AddRow(float64(cap), median(errs), median(reads), mean(trunc))
	}
	return []*Table{t}, nil
}
