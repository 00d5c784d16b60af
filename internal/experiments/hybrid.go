package experiments

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro"
)

// hybridRun is one full run of the paper's algorithm over a dataset: one DB
// hosting the one stream eng.
type hybridRun struct {
	eng *hsq.Stream
	dir string

	updates []hsq.UpdateStats
	// perStepIO records total block accesses per time step (Figure 8).
	perStepIO []uint64
}

// hybridConfig parametrizes a hybrid run.
type hybridConfig struct {
	eps         float64
	kappa       int
	blockSize   int
	pin         bool
	backend     string
	cacheBlocks int
}

// hybridCfg derives a run configuration from the campaign scale, inheriting
// the scale's block size, backend and cache sizing.
func (s Scale) hybridCfg(eps float64, kappa int, pin bool) hybridConfig {
	return hybridConfig{
		eps: eps, kappa: kappa, pin: pin,
		blockSize: s.BlockSize, backend: s.Backend, cacheBlocks: s.CacheBlocks,
	}
}

// newHybridRun opens a one-stream DB in a fresh directory under root (for the
// file backend) and loads every batch of the dataset, then plays the
// in-flight stream.
func newHybridRun(ds *dataset, cfg hybridConfig, root string) (*hybridRun, error) {
	var dir string
	if cfg.backend == "" || cfg.backend == "file" {
		var err error
		dir, err = os.MkdirTemp(root, "hybrid-*")
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	db, err := hsq.Open(hsq.Options{
		Epsilon:     cfg.eps,
		Kappa:       cfg.kappa,
		Backend:     cfg.backend,
		Dir:         dir,
		BlockSize:   cfg.blockSize,
		CacheBlocks: cfg.cacheBlocks,
		NoBlockPin:  !cfg.pin,
	})
	if err != nil {
		os.RemoveAll(dir) //nolint:errcheck
		return nil, err
	}
	eng, err := db.Stream("run")
	if err != nil {
		db.Close()        //nolint:errcheck
		os.RemoveAll(dir) //nolint:errcheck
		return nil, err
	}
	run := &hybridRun{eng: eng, dir: dir}
	for _, b := range ds.batches {
		eng.ObserveSlice(b)
		us, err := eng.EndStep()
		if err != nil {
			run.Close()
			return nil, err
		}
		run.updates = append(run.updates, us)
		run.perStepIO = append(run.perStepIO, us.TotalIO())
	}
	eng.ObserveSlice(ds.stream)
	return run, nil
}

// Close destroys the run's on-disk state.
func (r *hybridRun) Close() {
	r.eng.DB().DropStream(r.eng.Name()) //nolint:errcheck
	r.eng.DB().Close()                  //nolint:errcheck
	os.RemoveAll(r.dir)                 //nolint:errcheck
}

// queryAccurate runs one accurate query and returns the answer with stats.
func (r *hybridRun) queryAccurate(phi float64) (int64, hsq.QueryStats, error) {
	return r.eng.Quantile(phi)
}

// queryQuick runs one quick query, timing it.
func (r *hybridRun) queryQuick(phi float64) (int64, time.Duration, error) {
	t0 := time.Now()
	a, err := r.eng.Query(context.Background(), hsq.Request{Phis: []float64{phi}, Quick: true})
	if err != nil {
		return 0, 0, err
	}
	return a.Values[0], time.Since(t0), nil
}

// avgUpdate aggregates per-phase means across all time steps, in seconds.
func (r *hybridRun) avgUpdate() (load, sort, merge, summary float64) {
	if len(r.updates) == 0 {
		return
	}
	for _, u := range r.updates {
		load += u.Load.Seconds()
		sort += u.Sort.Seconds()
		merge += u.Merge.Seconds()
		summary += u.Summary.Seconds()
	}
	n := float64(len(r.updates))
	return load / n, sort / n, merge / n, summary / n
}

// avgUpdateIO returns mean block accesses per step, total and merge-only.
func (r *hybridRun) avgUpdateIO() (total, mergeOnly float64) {
	if len(r.updates) == 0 {
		return
	}
	for _, u := range r.updates {
		total += float64(u.TotalIO())
		mergeOnly += float64(u.MergeIO.Total())
	}
	n := float64(len(r.updates))
	return total / n, mergeOnly / n
}

// planEps picks ε for a memory budget under this scale's geometry.
func planEps(budget int64, sc Scale, kappa int) (float64, error) {
	return hsq.Plan(budget, int64(sc.StreamSize), sc.Steps, kappa)
}
