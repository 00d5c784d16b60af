// Multi-stream cache-sharing evaluation: N streams on one DB draw on a
// single shared LRU budget, so cache capacity flows to whichever stream is
// hot; N one-stream DBs must statically split the same budget N ways and
// strand capacity on cold streams. The test asserts the effect.
package hsq_test

import (
	"fmt"
	"testing"

	"repro"
)

const (
	msStreams    = 4
	msSteps      = 3
	msBatch      = 4096
	msCacheTotal = 96 // blocks; each stream holds ~96 blocks of data
	msRounds     = 30
)

// msPhis is the dashboard query mix run against the hot stream each round.
var msPhis = []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}

func msConfig(cacheBlocks int) hsq.Options {
	return hsq.Options{
		Epsilon:     0.02,
		Kappa:       4,
		Backend:     "mem",
		BlockSize:   1024, // 128 elements per block
		CacheBlocks: cacheBlocks,
		// Memoization off: the cache comparison needs repeated queries to
		// reach the block layer.
		ProbeMemoEntries: -1,
	}
}

// msQuery runs one round of the skewed dashboard workload: the hot stream
// (index 0) answers the full phi mix; cold streams answer one phi each.
func msQuery(tb testing.TB, round int, quantile func(i int, phi float64)) {
	for _, phi := range msPhis {
		quantile(0, phi)
	}
	for i := 1; i < msStreams; i++ {
		quantile(i, msPhis[round%len(msPhis)])
	}
}

// runShared drives the workload against one DB hosting all streams over a
// single cache budget and returns total backend RandReads.
func runShared(tb testing.TB) (total uint64, sum, agg hsq.IOStats) {
	db, err := hsq.Open(msConfig(msCacheTotal))
	if err != nil {
		tb.Fatal(err)
	}
	streams := make([]*hsq.Stream, msStreams)
	for i := range streams {
		st, err := db.Stream(fmt.Sprintf("s%d", i))
		if err != nil {
			tb.Fatal(err)
		}
		streams[i] = st
		loadStream(tb, st, int64(i+1), msSteps, msBatch)
	}
	for round := 0; round < msRounds; round++ {
		msQuery(tb, round, func(i int, phi float64) {
			if _, _, err := streams[i].Quantile(phi); err != nil {
				tb.Fatal(err)
			}
		})
	}
	for _, st := range streams {
		sum = sum.Add(st.DiskStats())
	}
	agg = db.DiskStats()
	return agg.RandReads, sum, agg
}

// runSplit drives the identical workload against N one-stream DBs, each
// with 1/N of the cache budget, and returns total backend RandReads.
func runSplit(tb testing.TB) uint64 {
	engines := make([]*hsq.Stream, msStreams)
	for i := range engines {
		engines[i] = hsq.OneStream(tb, msConfig(msCacheTotal/msStreams))
		loadStream(tb, engines[i], int64(i+1), msSteps, msBatch)
	}
	for round := 0; round < msRounds; round++ {
		msQuery(tb, round, func(i int, phi float64) {
			if _, _, err := engines[i].Quantile(phi); err != nil {
				tb.Fatal(err)
			}
		})
	}
	var total uint64
	for _, eng := range engines {
		total += eng.DiskStats().RandReads
	}
	return total
}

// TestMultiStreamSharedCache is the tentpole's acceptance check: N streams
// on one shared DB spend fewer total backend RandReads than N one-stream
// DBs with the cache split N ways, and per-stream IOStats sum exactly
// to the device aggregate.
func TestMultiStreamSharedCache(t *testing.T) {
	shared, sum, agg := runShared(t)
	split := runSplit(t)
	t.Logf("total RandReads: shared DB = %d, split DBs = %d", shared, split)
	if shared >= split {
		t.Errorf("shared cache (%d reads) should beat split caches (%d reads)", shared, split)
	}
	if sum != agg {
		t.Errorf("per-stream IOStats sum %+v != device aggregate %+v", sum, agg)
	}
}
