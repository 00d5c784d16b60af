package hsq

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/workload"
)

func newEngine(t *testing.T, eps float64, kappa int) *Stream {
	t.Helper()
	return OneStream(t, Options{
		Epsilon:   eps,
		Kappa:     kappa,
		Dir:       t.TempDir(),
		BlockSize: 1024, // 128 elements per block: exercises multi-block paths at test scale
	})
}

func TestConfigValidation(t *testing.T) {
	if _, err := Open(Options{Epsilon: 0, Dir: t.TempDir()}); err == nil {
		t.Error("eps=0: want error")
	}
	if _, err := Open(Options{Epsilon: 0.1}); err == nil {
		t.Error("no dir: want error")
	}
	if _, err := Open(Options{Epsilon: 0.1, Kappa: 1, Dir: t.TempDir()}); err == nil {
		t.Error("kappa=1: want error")
	}
	if _, err := Open(Options{Epsilon: 1.2, Dir: t.TempDir()}); err == nil {
		t.Error("eps>1: want error")
	}
}

func TestEmptyEngine(t *testing.T) {
	eng := newEngine(t, 0.1, 3)
	if _, _, err := eng.Quantile(0.5); err == nil {
		t.Error("query on empty engine: want error")
	}
	if _, err := QuantileQuick(eng, 0.5); err == nil {
		t.Error("quick query on empty engine: want error")
	}
	us, err := eng.EndStep()
	if err != nil || us.BatchSize != 0 {
		t.Errorf("EndStep on empty stream: %+v, %v", us, err)
	}
}

func TestPhiValidation(t *testing.T) {
	eng := newEngine(t, 0.1, 3)
	eng.Observe(1)
	for _, phi := range []float64{0, -0.5, 1.1} {
		if _, _, err := eng.Quantile(phi); err == nil {
			t.Errorf("phi=%g: want error", phi)
		}
		if _, err := QuantileQuick(eng, phi); err == nil {
			t.Errorf("quick phi=%g: want error", phi)
		}
	}
}

// TestEndToEndAccuracy is the headline integration test: stream 30 time
// steps of data through the engine, querying after every few steps, and
// check the Theorem 2 guarantee |rank(e) - r| ≤ ~1.5·ε·m against an exact
// oracle (the theory constant is 1.25 for our SS rounding; see
// internal/core).
func TestEndToEndAccuracy(t *testing.T) {
	const (
		eps       = 0.05
		steps     = 30
		batchSize = 2000
		streamMid = 1200
	)
	for _, wl := range []string{"uniform", "normal", "wikipedia", "nettrace"} {
		t.Run(wl, func(t *testing.T) {
			gen, err := workload.ByName(wl, 1)
			if err != nil {
				t.Fatal(err)
			}
			eng := newEngine(t, eps, 3)
			orc := oracle.New(steps * batchSize)
			for step := 0; step < steps; step++ {
				batch := workload.Fill(gen, batchSize)
				eng.ObserveSlice(batch)
				orc.Add(batch...)
				if step%5 == 4 {
					// Query mid-stream: part of the batch is "streaming".
					checkAccuracy(t, eng, orc, eps)
				}
				if _, err := eng.EndStep(); err != nil {
					t.Fatal(err)
				}
			}
			// Query with a fresh partial stream on top of full history.
			batch := workload.Fill(gen, streamMid)
			eng.ObserveSlice(batch)
			orc.Add(batch...)
			checkAccuracy(t, eng, orc, eps)

			if eng.HistCount() != int64(steps*batchSize) {
				t.Errorf("HistCount = %d", eng.HistCount())
			}
			if eng.StreamCount() != streamMid {
				t.Errorf("StreamCount = %d", eng.StreamCount())
			}
			if eng.TotalCount() != orc.Count() {
				t.Errorf("TotalCount = %d, oracle %d", eng.TotalCount(), orc.Count())
			}
		})
	}
}

func checkAccuracy(t *testing.T, eng *Stream, orc *oracle.Oracle, eps float64) {
	t.Helper()
	m := float64(eng.StreamCount())
	n := float64(eng.TotalCount())
	for _, phi := range []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.99} {
		r := int64(math.Ceil(phi * n))
		v, qs, err := eng.Quantile(phi)
		if err != nil {
			t.Fatalf("Quantile(%g): %v", phi, err)
		}
		// Accurate bound: 1.5·ε·m slack over the 1.25 theory constant; with
		// m = 0 the answer must be exact (allow ±1 for rank/ceil rounding).
		// Error is measured as distance from the target rank to the
		// answer's rank span — with duplicated values even the exact
		// quantile's point rank can jump far past the target.
		bound := 1.5*eps*m + 1
		if d := float64(orc.SpanError(r, v)); d > bound {
			t.Errorf("phi=%.2f: accurate error %g > %g (m=%g, stats %+v)", phi, d, bound, m, qs)
		}
		// Quick bound: 1.5·ε·N (Lemma 3).
		qv, err := QuantileQuick(eng, phi)
		if err != nil {
			t.Fatalf("QuantileQuick(%g): %v", phi, err)
		}
		qbound := 1.5*eps*n + 1
		if d := float64(orc.SpanError(r, qv)); d > qbound {
			t.Errorf("phi=%.2f: quick error %g > %g", phi, d, qbound)
		}
	}
}

func TestAccurateIsExactWithEmptyStream(t *testing.T) {
	eng := newEngine(t, 0.1, 3)
	gen := workload.NewUniform(7)
	orc := oracle.New(0)
	for step := 0; step < 10; step++ {
		batch := workload.Fill(gen, 500)
		eng.ObserveSlice(batch)
		orc.Add(batch...)
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	// Stream is empty: accurate answers must be the exact quantiles.
	for _, phi := range []float64{0.01, 0.1, 0.5, 0.9, 1.0} {
		want, err := orc.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eng.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("phi=%g: got %d, want exact %d", phi, got, want)
		}
	}
}

func TestRankQuery(t *testing.T) {
	eng := newEngine(t, 0.1, 3)
	for i := int64(1); i <= 1000; i++ {
		eng.Observe(i)
	}
	if _, err := eng.EndStep(); err != nil {
		t.Fatal(err)
	}
	v, _, err := Query1(eng, Request{Ranks: []int64{500}})
	if err != nil {
		t.Fatal(err)
	}
	if v != 500 { // empty stream → exact
		t.Errorf("Ranks{500} = %d", v)
	}
	qv, _, err := Query1(eng, Request{Ranks: []int64{500}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(qv-500)) > 1.5*0.1*1000 {
		t.Errorf("quick Ranks{500} = %d", qv)
	}
	// One request, three rank-of-value targets: one iteration each, timed once.
	a, err := eng.Query(context.Background(), Request{Values: []int64{1, 500, 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Values, []int64{1, 500, 1000}) || a.Stats.Iterations != 3 || a.Stats.Elapsed <= 0 {
		t.Errorf("Values{1,500,1000} = %v, stats %+v; want exact ranks, 3 iterations, Elapsed > 0", a.Values, a.Stats)
	}
}

func TestWindowQueries(t *testing.T) {
	eng := newEngine(t, 0.05, 3)
	gen := workload.NewNormal(3)
	// Keep per-step batches so we can rebuild any window's oracle.
	var batches [][]int64
	for step := 0; step < 13; step++ {
		batch := workload.Fill(gen, 400)
		batches = append(batches, batch)
		eng.ObserveSlice(batch)
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	stream := workload.Fill(gen, 300)
	eng.ObserveSlice(stream)

	wins := eng.AvailableWindows()
	if len(wins) == 0 {
		t.Fatal("no windows")
	}
	for _, w := range wins {
		orc := oracle.New(0)
		for _, b := range batches[len(batches)-w:] {
			orc.Add(b...)
		}
		orc.Add(stream...)
		n := float64(orc.Count())
		for _, phi := range []float64{0.25, 0.5, 0.9} {
			r := int64(math.Ceil(phi * n))
			v, _, err := Query1(eng, Request{Phis: []float64{phi}, Window: w})
			if err != nil {
				t.Fatalf("window %d: %v", w, err)
			}
			bound := 1.5*0.05*float64(len(stream)) + 1
			if d := float64(orc.SpanError(r, v)); d > bound {
				t.Errorf("window %d phi=%.2f: error %g > %g", w, phi, d, bound)
			}
			qv, _, err := Query1(eng, Request{Phis: []float64{phi}, Window: w, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if d := float64(orc.SpanError(r, qv)); d > 1.5*0.05*n+1 {
				t.Errorf("window %d phi=%.2f: quick error %g", w, phi, d)
			}
		}
	}
	// Misaligned windows error out.
	aligned := make(map[int]bool)
	for _, w := range wins {
		aligned[w] = true
	}
	for w := 1; w <= 13; w++ {
		if !aligned[w] {
			if _, _, err := Query1(eng, Request{Phis: []float64{0.5}, Window: w}); err == nil {
				t.Errorf("window %d should be rejected", w)
			}
		}
	}
}

// BenchmarkWindowQuery times accurate queries over every aligned window of
// a 13-step history (no benchmark/ workload reads windows).
func BenchmarkWindowQuery(b *testing.B) {
	eng := loadEngine(b, Options{Epsilon: 0.01, Kappa: 10, Dir: b.TempDir(), BlockSize: 4096}, 13, 10000, 2000)
	wins := eng.AvailableWindows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Query1(eng, Request{Phis: []float64{0.5}, Window: wins[i%len(wins)]}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStreamOnlyQueries(t *testing.T) {
	eng := newEngine(t, 0.05, 3)
	orc := oracle.New(0)
	gen := workload.NewUniform(11)
	vals := workload.Fill(gen, 5000)
	eng.ObserveSlice(vals)
	orc.Add(vals...)
	checkAccuracy(t, eng, orc, 0.05)
}

func TestUpdateStats(t *testing.T) {
	eng := newEngine(t, 0.1, 2)
	// The load phase is the 1000-value raw spill at newEngine's 1024-byte
	// blocks, and nothing else.
	spillBlocks := uint64((1000*disk.ElementSize + 1023) / 1024)
	var us UpdateStats
	var batch []int64
	for step := 0; step < 3; step++ {
		batch = batch[:0]
		for i := 0; i < 1000; i++ {
			batch = append(batch, int64(step*10000+i))
		}
		eng.ObserveSlice(batch)
		var err error
		us, err = eng.EndStep()
		if err != nil {
			t.Fatal(err)
		}
		if us.BatchSize != 1000 {
			t.Errorf("BatchSize = %d", us.BatchSize)
		}
		if l := us.LoadIO; l.SeqWrites != spillBlocks || l.SeqReads+l.RandReads+l.CacheHits+l.CacheMisses != 0 {
			t.Errorf("LoadIO = %+v, want %d sequential writes and no reads", l, spillBlocks)
		}
	}
	// Store.AddBatch reports the seal's one measurement of the same batch.
	dev, err := disk.NewManagerOn(disk.NewMemBackend(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	store, err := partition.NewStore(dev, partition.Config{Kappa: 2, Eps1: 0.05, SpillBatches: true})
	if err != nil {
		t.Fatal(err)
	}
	bd, err := store.AddBatch(batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bd.LoadIO != us.LoadIO {
		t.Errorf("Store.AddBatch LoadIO = %+v, EndStep's = %+v", bd.LoadIO, us.LoadIO)
	}
	// κ=2: step 3 merges level 0.
	if us.Merges != 1 {
		t.Errorf("Merges = %d, want 1", us.Merges)
	}
	if us.MergeIO.Total() == 0 {
		t.Error("merge did no I/O")
	}
	if us.TotalIO() < us.MergeIO.Total() {
		t.Error("TotalIO inconsistent")
	}
	if us.TotalTime() <= 0 {
		t.Error("TotalTime not positive")
	}
	if eng.Steps() != 3 || eng.PartitionCount() != 1 {
		t.Errorf("steps=%d partitions=%d", eng.Steps(), eng.PartitionCount())
	}
}

func TestQueryStatsReportIO(t *testing.T) {
	eng := newEngine(t, 0.01, 3)
	gen := workload.NewUniform(13)
	for step := 0; step < 10; step++ {
		eng.ObserveSlice(workload.Fill(gen, 5000))
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	eng.ObserveSlice(workload.Fill(gen, 1000))
	before := eng.DiskStats()
	_, qs, err := eng.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	d := eng.DiskStats().Sub(before)
	if qs.RandReads == 0 {
		t.Error("accurate query should read blocks at this eps")
	}
	if uint64(qs.RandReads) != d.RandReads {
		t.Errorf("QueryStats.RandReads=%d, device counted %d", qs.RandReads, d.RandReads)
	}
	if d.SeqWrites != 0 {
		t.Error("query must not write")
	}
	if qs.Iterations == 0 || qs.Elapsed <= 0 {
		t.Errorf("stats incomplete: %+v", qs)
	}
	// Quick query does no I/O at all.
	before = eng.DiskStats()
	if _, err := QuantileQuick(eng, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := eng.DiskStats().Sub(before); got.Total() != 0 {
		t.Errorf("quick query did I/O: %+v", got)
	}
}

func TestMemoryUsage(t *testing.T) {
	eng := newEngine(t, 0.05, 3)
	gen := workload.NewNormal(17)
	for step := 0; step < 5; step++ {
		eng.ObserveSlice(workload.Fill(gen, 2000))
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	eng.ObserveSlice(workload.Fill(gen, 500))
	mu := eng.MemoryUsage()
	if mu.HistBytes == 0 || mu.StreamBytes == 0 {
		t.Errorf("memory usage: %+v", mu)
	}
	if mu.Total() != mu.HistBytes+mu.StreamBytes {
		t.Error("Total mismatch")
	}
	if mu.StreamPeakBytes < mu.StreamBytes {
		t.Error("peak below live")
	}
	// HS fits the Lemma 8 model within a small constant.
	planned := PlannedHistBytes(eng.Epsilon(), eng.Steps(), eng.Kappa())
	if float64(mu.HistBytes) > 3*planned {
		t.Errorf("HistBytes %d far above plan %g", mu.HistBytes, planned)
	}
}

func TestConcurrentObserveAndQuery(t *testing.T) {
	eng := newEngine(t, 0.05, 3)
	gen := workload.NewUniform(19)
	// Preload history so queries have something to read.
	for step := 0; step < 4; step++ {
		eng.ObserveSlice(workload.Fill(gen, 1000))
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var observer sync.WaitGroup
	observer.Add(1)
	go func() {
		defer observer.Done()
		g := workload.NewUniform(23)
		for {
			select {
			case <-stop:
				return
			default:
				eng.Observe(g.Next())
			}
		}
	}()
	var queries sync.WaitGroup
	for q := 0; q < 4; q++ {
		queries.Add(1)
		go func() {
			defer queries.Done()
			for i := 0; i < 50; i++ {
				if _, _, err := eng.Quantile(0.5); err != nil {
					t.Errorf("concurrent Quantile: %v", err)
					return
				}
				if _, err := QuantileQuick(eng, 0.9); err != nil {
					t.Errorf("concurrent QuantileQuick: %v", err)
					return
				}
			}
		}()
	}
	queries.Wait()
	close(stop)
	observer.Wait()
}

func TestCheckpointAndOpen(t *testing.T) {
	dir := t.TempDir()
	cfg := Options{Epsilon: 0.05, Kappa: 3, Dir: dir, BlockSize: 1024}
	eng := OneStream(t, cfg)
	gen := workload.NewNormal(29)
	orc := oracle.New(0)
	for step := 0; step < 8; step++ {
		batch := workload.Fill(gen, 600)
		eng.ObserveSlice(batch)
		orc.Add(batch...)
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.DB().Checkpoint(); err != nil {
		t.Fatal(err)
	}

	re := OneStream(t, cfg) // a second DB over the checkpointed directory
	if re.HistCount() != eng.HistCount() || re.Steps() != eng.Steps() {
		t.Errorf("reopened: hist=%d steps=%d", re.HistCount(), re.Steps())
	}
	// Empty stream → exact.
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		want, _ := orc.Quantile(phi)
		got, _, err := re.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("reopened phi=%g: %d vs %d", phi, got, want)
		}
	}
}

func TestDestroy(t *testing.T) {
	eng := newEngine(t, 0.1, 3)
	eng.Observe(1)
	if _, err := eng.EndStep(); err != nil {
		t.Fatal(err)
	}
	if err := eng.DB().DropStream(eng.Name()); err != nil {
		t.Fatal(err)
	}
	if eng.HistCount() != 0 {
		t.Error("history survived Destroy")
	}
}

func TestNoBlockPinStillCorrect(t *testing.T) {
	eng := OneStream(t, Options{Epsilon: 0.02, Kappa: 3, Dir: t.TempDir(), BlockSize: 1024, NoBlockPin: true})
	gen := workload.NewUniform(31)
	orc := oracle.New(0)
	for step := 0; step < 6; step++ {
		batch := workload.Fill(gen, 1500)
		eng.ObserveSlice(batch)
		orc.Add(batch...)
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	stream := workload.Fill(gen, 800)
	eng.ObserveSlice(stream)
	orc.Add(stream...)
	checkAccuracy(t, eng, orc, 0.02)
}

func TestQuantileMonotoneInPhi(t *testing.T) {
	eng := newEngine(t, 0.05, 3)
	gen := workload.NewWikipedia(37)
	for step := 0; step < 5; step++ {
		eng.ObserveSlice(workload.Fill(gen, 1000))
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	phis := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99}
	vals := make([]int64, len(phis))
	for i, phi := range phis {
		v, _, err := eng.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = v
	}
	if !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] <= vals[j] }) {
		t.Errorf("quantiles not monotone: %v", vals)
	}
}

func TestDescribe(t *testing.T) {
	eng := newEngine(t, 0.1, 2)
	for step := 0; step < 3; step++ {
		for i := 0; i < 100; i++ {
			eng.Observe(int64(step*100 + i))
		}
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	// κ=2, 3 steps: level 0 emptied by a merge into level 1.
	levels := eng.Describe()
	if len(levels) != 2 {
		t.Fatalf("levels = %+v", levels)
	}
	if levels[0].Partitions != 0 || levels[1].Partitions != 1 {
		t.Errorf("layout = %+v", levels)
	}
	if levels[1].Elements != 300 || levels[1].Steps != 3 {
		t.Errorf("level 1 = %+v", levels[1])
	}
}

func TestObserveSliceMatchesObserve(t *testing.T) {
	a := newEngine(t, 0.05, 3)
	b := newEngine(t, 0.05, 3)
	gen := workload.NewUniform(61)
	vals := workload.Fill(gen, 5000)
	for _, v := range vals {
		a.Observe(v)
	}
	b.ObserveSlice(vals)
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		av, err := QuantileQuick(a, phi)
		if err != nil {
			t.Fatal(err)
		}
		bv, err := QuantileQuick(b, phi)
		if err != nil {
			t.Fatal(err)
		}
		if av != bv {
			t.Errorf("phi=%g: Observe %d != ObserveSlice %d", phi, av, bv)
		}
	}
	if _, err := a.EndStep(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EndStep(); err != nil {
		t.Fatal(err)
	}
	av, _, err := a.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	bv, _, err := b.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if av != bv {
		t.Errorf("post-step: %d != %d", av, bv)
	}
}
