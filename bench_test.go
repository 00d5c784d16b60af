// Benchmarks: one macro-benchmark per paper figure (regenerating the
// figure's measurement loop at bench scale) plus micro-benchmarks for the
// hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// For full-scale figure regeneration use cmd/hsqbench instead; these benches
// exist so `go test -bench` exercises every experiment end to end.
package hsq_test

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// benchScale keeps figure benches fast while still touching disk, merges
// and queries.
var benchScale = experiments.Scale{
	Name: "bench", Steps: 6, BatchSize: 2000, StreamSize: 2000,
	Repeats: 1, MemFractions: []float64{0.2},
	Kappas: []int{2, 3}, BlockSize: 1024,
	Datasets: []string{"uniform"},
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, benchScale, io.Discard, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Accuracy(b *testing.B)        { benchFigure(b, "4") }
func BenchmarkFig5AccuracyVsKappa(b *testing.B) { benchFigure(b, "5") }
func BenchmarkFig6UpdateTime(b *testing.B)      { benchFigure(b, "6") }
func BenchmarkFig7UpdateVsKappa(b *testing.B)   { benchFigure(b, "7") }
func BenchmarkFig8DiskAccessCDF(b *testing.B)   { benchFigure(b, "8") }
func BenchmarkFig9QueryVsMemory(b *testing.B)   { benchFigure(b, "9") }
func BenchmarkFig10QueryVsKappa(b *testing.B)   { benchFigure(b, "10") }
func BenchmarkFig11Windows(b *testing.B)        { benchFigure(b, "11") }
func BenchmarkFig12HistScaling(b *testing.B)    { benchFigure(b, "12") }
func BenchmarkFig13StreamScaling(b *testing.B)  { benchFigure(b, "13") }
func BenchmarkAblationSplit(b *testing.B)       { benchFigure(b, "ablation-split") }
func BenchmarkAblationPinning(b *testing.B)     { benchFigure(b, "ablation-pinning") }
func BenchmarkAblationIOBudget(b *testing.B)    { benchFigure(b, "ablation-iobudget") }
func BenchmarkAblationBaselines(b *testing.B)   { benchFigure(b, "baselines") }
func BenchmarkTheoryComparison(b *testing.B)    { benchFigure(b, "theory") }

// --- micro-benchmarks --------------------------------------------------

// benchEngine builds a loaded engine for query benchmarks.
func benchEngine(b *testing.B, eps float64, steps, batch, stream int) *hsq.Engine {
	b.Helper()
	eng, err := hsq.New(hsq.Config{Epsilon: eps, Kappa: 10, Dir: b.TempDir(), BlockSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewUniform(1)
	for s := 0; s < steps; s++ {
		eng.ObserveSlice(workload.Fill(gen, batch))
		if _, err := eng.EndStep(); err != nil {
			b.Fatal(err)
		}
	}
	eng.ObserveSlice(workload.Fill(gen, stream))
	return eng
}

func BenchmarkObserve(b *testing.B) {
	eng, err := hsq.New(hsq.Config{Epsilon: 0.01, Kappa: 10, Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewUniform(2)
	vals := workload.Fill(gen, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Observe(vals[i&(1<<16-1)])
	}
}

func BenchmarkEndStep(b *testing.B) {
	eng, err := hsq.New(hsq.Config{Epsilon: 0.01, Kappa: 10, Dir: b.TempDir(), BlockSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewUniform(3)
	batch := workload.Fill(gen, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ObserveSlice(batch)
		if _, err := eng.EndStep(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccurateQuery(b *testing.B) {
	eng := benchEngine(b, 0.01, 10, 20000, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi := 0.1 + 0.8*float64(i%9)/9
		if _, _, err := eng.Quantile(phi); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccurateQueryParallel(b *testing.B) {
	eng, err := hsq.New(hsq.Config{
		Epsilon: 0.01, Kappa: 10, Dir: b.TempDir(), BlockSize: 4096, ParallelQuery: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewUniform(4)
	for s := 0; s < 10; s++ {
		eng.ObserveSlice(workload.Fill(gen, 20000))
		if _, err := eng.EndStep(); err != nil {
			b.Fatal(err)
		}
	}
	eng.ObserveSlice(workload.Fill(gen, 5000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi := 0.1 + 0.8*float64(i%9)/9
		if _, _, err := eng.Quantile(phi); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuickQuery(b *testing.B) {
	eng := benchEngine(b, 0.01, 10, 20000, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi := 0.1 + 0.8*float64(i%9)/9
		if _, err := hsq.QuantileQuick(eng, phi); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWindowQuery(b *testing.B) {
	eng := benchEngine(b, 0.01, 13, 10000, 2000)
	wins := eng.AvailableWindows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hsq.Query1(eng, hsq.Request{Phis: []float64{0.5}, Window: wins[i%len(wins)]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryCached quantifies the block cache on the accurate-query
// path: the same store (mem backend, simulated HDD latency so wall-clock
// tracks the paper's I/O cost model) is queried with the cache off and on.
// Expect cache=on to cut both ns/op and randReads/op sharply once the hot
// blocks are resident.
func BenchmarkQueryCached(b *testing.B) {
	for _, cacheBlocks := range []int{0, 4096} {
		b.Run(fmt.Sprintf("cache=%d", cacheBlocks), func(b *testing.B) {
			eng, err := hsq.New(hsq.Config{
				Epsilon: 0.01, Kappa: 10, Backend: "mem", BlockSize: 4096,
				CacheBlocks: cacheBlocks, SimulateDisk: "hdd",
			})
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.NewUniform(6)
			for s := 0; s < 10; s++ {
				eng.ObserveSlice(workload.Fill(gen, 20000))
				if _, err := eng.EndStep(); err != nil {
					b.Fatal(err)
				}
			}
			eng.ObserveSlice(workload.Fill(gen, 5000))
			io0 := eng.DiskStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				phi := 0.1 + 0.8*float64(i%9)/9
				if _, _, err := eng.Quantile(phi); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			d := eng.DiskStats().Sub(io0)
			b.ReportMetric(float64(d.RandReads)/float64(b.N), "randReads/op")
			b.ReportMetric(float64(d.CacheHits)/float64(b.N), "cacheHits/op")
		})
	}
}

// BenchmarkQuantilesMultiTarget measures the shared multi-target sweep for
// k ∈ {1, 3, 9}: one Quantiles call per op, memoization off so every op
// pays the full bisection. Compare probes/op across k against k× the k=1
// figure to see the sharing.
func BenchmarkQuantilesMultiTarget(b *testing.B) {
	sets := map[int][]float64{
		1: {0.5},
		3: {0.25, 0.5, 0.75},
		9: {0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95, 0.99},
	}
	for _, k := range []int{1, 3, 9} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			eng, err := hsq.New(hsq.Config{
				Epsilon: 0.01, Kappa: 10, Dir: b.TempDir(), BlockSize: 4096,
				ProbeMemoEntries: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.NewUniform(7)
			for s := 0; s < 10; s++ {
				eng.ObserveSlice(workload.Fill(gen, 20000))
				if _, err := eng.EndStep(); err != nil {
					b.Fatal(err)
				}
			}
			eng.ObserveSlice(workload.Fill(gen, 5000))
			phis := sets[k]
			probes, reads := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, qs, err := eng.Quantiles(phis)
				if err != nil {
					b.Fatal(err)
				}
				probes += qs.Iterations
				reads += qs.RandReads
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
			b.ReportMetric(float64(reads)/float64(b.N), "randReads/op")
		})
	}
}

// BenchmarkRepeatedDashboardPoll is the canonical memo workload: the same φ
// set polled against an unchanged snapshot. The first poll pays the
// bisection; every later op should resolve entirely from the version's
// rank-probe memo (randReads/op → 0).
func BenchmarkRepeatedDashboardPoll(b *testing.B) {
	eng, err := hsq.New(hsq.Config{Epsilon: 0.01, Kappa: 10, Dir: b.TempDir(), BlockSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewUniform(8)
	for s := 0; s < 10; s++ {
		eng.ObserveSlice(workload.Fill(gen, 20000))
		if _, err := eng.EndStep(); err != nil {
			b.Fatal(err)
		}
	}
	eng.ObserveSlice(workload.Fill(gen, 5000))
	phis := []float64{0.5, 0.9, 0.99}
	if _, _, err := eng.Quantiles(phis); err != nil { // warm the memo
		b.Fatal(err)
	}
	reads, hits := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, qs, err := eng.Quantiles(phis)
		if err != nil {
			b.Fatal(err)
		}
		reads += qs.RandReads
		hits += qs.MemoHits
	}
	b.ReportMetric(float64(reads)/float64(b.N), "randReads/op")
	b.ReportMetric(float64(hits)/float64(b.N), "memoHits/op")
}

// BenchmarkUpdateAmortized reports the per-element amortized loading cost
// across enough steps to include multi-level merges (Lemma 6).
func BenchmarkUpdateAmortized(b *testing.B) {
	for _, kappa := range []int{2, 10} {
		b.Run(fmt.Sprintf("kappa=%d", kappa), func(b *testing.B) {
			eng, err := hsq.New(hsq.Config{Epsilon: 0.01, Kappa: kappa, Dir: b.TempDir(), BlockSize: 4096})
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.NewUniform(5)
			batch := workload.Fill(gen, 5000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ObserveSlice(batch)
				if _, err := eng.EndStep(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			io := eng.DiskStats()
			b.ReportMetric(float64(io.Total())/float64(b.N), "blockIO/step")
		})
	}
}

// BenchmarkColumnarScan compares a full sequential scan of a sorted file in
// the raw format against the delta-compressed columnar format. Columnar
// files pack many more elements per block, so the same data costs fewer
// block transfers — the metric that matters under the paper's cost model.
func BenchmarkColumnarScan(b *testing.B) {
	const n = 1 << 18
	vals := make([]int64, n)
	v := int64(0)
	gen := workload.NewUniform(7)
	for i := range vals {
		v += gen.Next() & 0xff // sorted, small deltas: the columnar sweet spot
		vals[i] = v
	}
	for _, format := range []disk.BlockFormat{disk.FormatRaw, disk.FormatColumnar} {
		b.Run("format="+format.String(), func(b *testing.B) {
			m, err := disk.NewManagerOn(disk.NewMemBackend(), 4096)
			if err != nil {
				b.Fatal(err)
			}
			w, err := m.CreateFormat("scan.dat", format)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.AppendSlice(vals); err != nil {
				b.Fatal(err)
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			io0 := m.Stats()
			b.SetBytes(n * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := m.OpenSequential("scan.dat")
				if err != nil {
					b.Fatal(err)
				}
				r.SetReadahead(disk.MergeReadahead)
				for {
					_, ok, err := r.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
				}
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			d := m.Stats().Sub(io0)
			b.ReportMetric(float64(d.SeqReads)/float64(b.N), "blocks/scan")
		})
	}
}

// BenchmarkBlockSkip compares accurate-query throughput between the raw and
// columnar formats at an equal decoded-bytes cache budget. Columnar wins
// twice: bisection steps resolved from block-header min/max bounds cost
// nothing, and each read block covers more of the value domain.
func BenchmarkBlockSkip(b *testing.B) {
	for _, format := range []string{"raw", "columnar"} {
		b.Run("format="+format, func(b *testing.B) {
			eng, err := hsq.New(hsq.Config{
				Epsilon: 0.01, Kappa: 10, Backend: "mem", BlockSize: 4096,
				CacheBlocks: 8, SimulateDisk: "hdd", BlockFormat: format,
			})
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.NewUniform(8)
			for s := 0; s < 10; s++ {
				eng.ObserveSlice(workload.Fill(gen, 20000))
				if _, err := eng.EndStep(); err != nil {
					b.Fatal(err)
				}
			}
			eng.ObserveSlice(workload.Fill(gen, 5000))
			io0 := eng.DiskStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				phi := 0.1 + 0.8*float64(i%9)/9
				if _, _, err := eng.Quantile(phi); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			d := eng.DiskStats().Sub(io0)
			b.ReportMetric(float64(d.RandReads)/float64(b.N), "randReads/op")
			b.ReportMetric(float64(d.SkippedBlocks)/float64(b.N), "skips/op")
		})
	}
}

// --- maintenance benchmarks ---------------------------------------------

// maintBenchConfig builds the sync-vs-async comparison engine: κ=2 so
// merges cascade constantly, simulated SSD latency so the inline
// sort+merge cost is the device's rather than the allocator's.
func maintBenchConfig(mode string) hsq.Config {
	cfg := hsq.Config{
		Epsilon: 0.01, Kappa: 2, Backend: "mem", BlockSize: 4096,
		SimulateDisk: "ssd", Maintenance: mode,
	}
	if mode == "async" {
		cfg.MaxPendingSteps = 8
		cfg.MaintenanceWorkers = 2
	}
	return cfg
}

func reportP99(b *testing.B, lat []time.Duration, name string) {
	b.Helper()
	if len(lat) == 0 {
		return
	}
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), name)
}

// BenchmarkIngestStall measures the write path's tail latency across step
// boundaries: a producer observes continuously while the bench loop closes
// steps. No mode holds the engine lock across an install, so Observe p99 is
// the cost of the lock hand-off at the cut in both; what the async scheduler
// buys is the EndStep caller's own latency (p99-endstep-ns, and ns/op) — the
// seal and its commit instead of seal, install, merges and commit — until
// the backlog reaches MaxPendingSteps and backpressure hands the install
// time back.
func BenchmarkIngestStall(b *testing.B) {
	for _, mode := range []string{"sync", "async"} {
		b.Run("maintenance="+mode, func(b *testing.B) {
			eng, err := hsq.New(maintBenchConfig(mode))
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close() //nolint:errcheck
			gen := workload.NewUniform(21)
			vals := workload.Fill(gen, 1<<16)

			// Low-rate latency probe: one Observe every ~200µs, so the batch
			// volume stays owned by the bench loop while the probe samples
			// how long an Observe waits behind a step boundary.
			var (
				stop atomic.Bool
				wg   sync.WaitGroup
				mu   sync.Mutex
				lat  []time.Duration
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := 0
				for !stop.Load() {
					t0 := time.Now()
					eng.Observe(vals[i&(1<<16-1)])
					d := time.Since(t0)
					mu.Lock()
					lat = append(lat, d)
					mu.Unlock()
					i++
					time.Sleep(200 * time.Microsecond)
				}
			}()

			batch := workload.Fill(gen, 4000)
			endStep := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ObserveSlice(batch)
				t0 := time.Now()
				if _, err := eng.EndStep(); err != nil {
					b.Fatal(err)
				}
				endStep = append(endStep, time.Since(t0))
			}
			b.StopTimer()
			reportP99(b, endStep, "p99-endstep-ns")
			stop.Store(true)
			wg.Wait()
			if err := eng.SyncMaintenance(); err != nil {
				b.Fatal(err)
			}
			mu.Lock()
			reportP99(b, lat, "p99-observe-ns")
			mu.Unlock()
		})
	}
}

// BenchmarkQueryDuringMerge measures accurate-query latency while installs
// and κ-way merges run: a producer keeps closing steps (κ=2, so cascades
// are constant) while the bench loop queries. Reads are snapshot-isolated
// from the install whoever runs it — the EndStep caller or the scheduler —
// so both modes stay flat; they differ in how many sealed steps a query
// covers by frozen summary instead of by partition.
func BenchmarkQueryDuringMerge(b *testing.B) {
	for _, mode := range []string{"sync", "async"} {
		b.Run("maintenance="+mode, func(b *testing.B) {
			eng, err := hsq.New(maintBenchConfig(mode))
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close() //nolint:errcheck
			gen := workload.NewUniform(22)
			for s := 0; s < 6; s++ {
				eng.ObserveSlice(workload.Fill(gen, 4000))
				if _, err := eng.EndStep(); err != nil {
					b.Fatal(err)
				}
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					eng.ObserveSlice(workload.Fill(gen, 4000))
					if _, err := eng.EndStep(); err != nil {
						return
					}
				}
			}()

			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				phi := 0.1 + 0.8*float64(i%9)/9
				t0 := time.Now()
				if _, _, err := eng.Quantile(phi); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(t0))
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			if err := eng.SyncMaintenance(); err != nil {
				b.Fatal(err)
			}
			reportP99(b, lat, "p99-query-ns")
		})
	}
}
