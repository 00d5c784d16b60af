package hsq_test

import (
	"context"
	"runtime"
	"testing"

	"repro"
	"repro/internal/workload"
)

// TestObserveSliceZeroAlloc gates the ingest hot path as every write takes
// it — through a db.Stream handle, so the directory's pin and release are
// inside the measurement (ObserveSliceCtx is what ingest.Server.apply calls):
// once the live step's tail has grown to its working-set size, neither
// ObserveSlice nor ObserveSliceCtx may allocate. The rule that makes it so:
// the tail never leaves the engine — a fold merges it into a new run and
// keeps its buffer, and the cut seals the run, not the tail. The
// subtest keeps the name of the one maintenance schedule left, "sync", so its
// id carries over.
func TestObserveSliceZeroAlloc(t *testing.T) {
	t.Run(hsq.MaintenanceSync, func(t *testing.T) {
		eng := hsq.OneStream(t, hsq.Options{Epsilon: 0.01, Kappa: 10, Backend: "mem"})

		gen := workload.NewUniform(99)
		// Warm up: one large step grows the tail past anything the
		// measurement loop will need; the cut empties it and keeps its
		// capacity.
		eng.ObserveSlice(workload.Fill(gen, 100_000))
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}

		chunk := workload.Fill(gen, 100)
		allocs := testing.AllocsPerRun(50, func() {
			eng.ObserveSlice(chunk)
		})
		if allocs != 0 {
			t.Fatalf("ObserveSlice allocated %.1f times per call after warmup, want 0", allocs)
		}
		ctx := context.Background()
		allocs = testing.AllocsPerRun(50, func() {
			eng.ObserveSliceCtx(ctx, chunk) //nolint:errcheck
		})
		if allocs != 0 {
			t.Fatalf("ObserveSliceCtx allocated %.1f times per call after warmup, want 0", allocs)
		}
	})
}

// TestRankBuildsNoCombinedSummary: an accurate rank query reads the
// partitions and the stream pieces, never TS, so what it allocates — the
// snapshot and one cursor per partition — must not grow with δ. Two engines
// holding the same nine partitions at ε 40× apart (δ 40× apart; a combined
// summary is 24 bytes per entry) must allocate about the same per query.
func TestRankBuildsNoCombinedSummary(t *testing.T) {
	perRank := func(eps float64) (alloc, summaries int64) {
		eng := hsq.OneStream(t, hsq.Options{
			Epsilon: eps, Kappa: 10, Backend: "mem", Maintenance: "sync", BlockSize: 1024,
		})
		gen := workload.NewUniform(7)
		for step := 0; step < 9; step++ {
			eng.ObserveSlice(workload.Fill(gen, 4000))
			if _, err := eng.EndStep(); err != nil {
				t.Fatal(err)
			}
		}
		v, _, err := eng.Quantile(0.5)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, _, err := eng.Rank(v); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / runs, eng.MemoryUsage().HistBytes
	}
	coarse, coarseSum := perRank(0.04)
	fine, fineSum := perRank(0.001)
	t.Logf("Rank allocates %d B per query over %d B of summaries, %d B over %d B", coarse, coarseSum, fine, fineSum)
	if grew := fine - coarse; grew > (fineSum-coarseSum)/10 {
		t.Fatalf("Rank allocated %d B more per query over %d B more of summaries: it is building O(δ) state", grew, fineSum-coarseSum)
	}
}
