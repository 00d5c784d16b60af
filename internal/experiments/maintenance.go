package experiments

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/workload"
)

// MaintenanceComparison quantifies what the background maintenance
// scheduler buys under concurrent traffic: the same ingest+query workload
// runs once with synchronous maintenance (the EndStep caller installs the
// step it sealed before returning) and once with the async scheduler (the
// same install runs on the worker pool). Either way observes and queries
// run beside the install, never behind it, so the modes differ in EndStep
// latency. Reported per mode (x = 0 sync, x = 1 async):
//
//	EndStepP99Ms  — p99 end-of-step latency on the ingest path
//	ObserveP99Us  — p99 single-Observe latency with steps closing around it
//	QueryP99Ms    — p99 accurate-query latency while maintenance runs
//	Installs      — installs executed (one per step in both modes)
//	Merges        — level merges those installs ran
//
// The paper treats sort+merge as an offline "load" phase (Figure 6); this
// table is the online version of that cost: who pays it, the writer inline
// or a background pool.
func MaintenanceComparison(sc Scale, root string) ([]*Table, error) {
	steps := sc.Steps
	if steps > 24 {
		steps = 24
	}
	batch := sc.BatchSize
	if batch > 8000 {
		batch = 8000
	}
	t := &Table{
		ID:     "maintenance-stall",
		Title:  fmt.Sprintf("Ingest stall & query latency, sync (x=0) vs async (x=1) maintenance, uniform, κ=2, %d steps × %d", steps, batch),
		XLabel: "mode",
		Columns: []string{
			"EndStepP99Ms", "ObserveP99Us", "QueryP99Ms", "Installs", "Merges",
		},
	}
	for x, mode := range []string{hsq.MaintenanceSync, hsq.MaintenanceAsync} {
		res, err := runMaintenanceWorkload(mode, steps, batch)
		if err != nil {
			return nil, err
		}
		t.AddRow(float64(x),
			res.endStepP99.Seconds()*1e3,
			res.observeP99.Seconds()*1e6,
			res.queryP99.Seconds()*1e3,
			float64(res.installs),
			float64(res.merges),
		)
	}
	return []*Table{t}, nil
}

type maintResult struct {
	endStepP99 time.Duration
	observeP99 time.Duration
	queryP99   time.Duration
	installs   int
	merges     int
}

// runMaintenanceWorkload drives one producer (observe + end-of-steps) with
// one concurrent accurate-query reader and collects latency distributions.
func runMaintenanceWorkload(mode string, steps, batch int) (maintResult, error) {
	var out maintResult
	cfg := hsq.Config{
		Epsilon: 0.01, Kappa: 2, // κ=2 cascades merges constantly
		Backend: "mem", BlockSize: 4096,
		// Simulated disk latency so the inline sort+merge cost is the
		// device's, not the allocator's — the same trick the cache figure
		// uses to make wall-clock track the paper's I/O cost model.
		SimulateDisk: "ssd",
		Maintenance:  mode,
	}
	if mode == hsq.MaintenanceAsync {
		cfg.MaxPendingSteps = 8
		cfg.MaintenanceWorkers = 2
	}
	eng, err := hsq.New(cfg)
	if err != nil {
		return out, err
	}
	defer eng.Close() //nolint:errcheck

	gen := workload.NewUniform(77)
	var (
		stop     sync.WaitGroup
		done     = make(chan struct{})
		queryLat []time.Duration
		qErr     error
	)
	stop.Add(1)
	go func() {
		defer stop.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if eng.TotalCount() == 0 {
				continue
			}
			t0 := time.Now()
			if _, _, err := eng.Quantile(0.5); err != nil {
				qErr = err
				return
			}
			queryLat = append(queryLat, time.Since(t0))
		}
	}()

	var endLat, obsLat []time.Duration
	for s := 0; s < steps; s++ {
		vals := workload.Fill(gen, batch)
		for i, v := range vals {
			if i%16 == 0 {
				t0 := time.Now()
				eng.Observe(v)
				obsLat = append(obsLat, time.Since(t0))
			} else {
				eng.Observe(v)
			}
		}
		t0 := time.Now()
		if _, err := eng.EndStep(); err != nil {
			close(done)
			stop.Wait()
			return out, err
		}
		endLat = append(endLat, time.Since(t0))
	}
	if err := eng.SyncMaintenance(); err != nil {
		close(done)
		stop.Wait()
		return out, err
	}
	close(done)
	stop.Wait()
	if qErr != nil {
		return out, qErr
	}

	ms := eng.MaintenanceStats()
	out.installs = ms.Installs
	out.merges = ms.Merges
	out.endStepP99 = p99(endLat)
	out.observeP99 = p99(obsLat)
	out.queryP99 = p99(queryLat)
	return out, nil
}

// p99 returns the 99th-percentile of the samples (0 when empty).
func p99(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	slices.Sort(lat)
	return lat[len(lat)*99/100]
}
