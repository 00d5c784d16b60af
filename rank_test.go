package hsq

import (
	"context"
	"math"
	"testing"

	"repro/internal/oracle"
	"repro/internal/workload"
)

func loadedEngine(t *testing.T, eps float64, steps, batch, stream int, seed int64) (*Stream, *oracle.Oracle) {
	t.Helper()
	eng := OneStream(t, Options{Epsilon: eps, Kappa: 3, Dir: t.TempDir(), BlockSize: 1024})
	gen := workload.NewUniform(seed)
	orc := oracle.New(0)
	for s := 0; s < steps; s++ {
		b := workload.Fill(gen, batch)
		eng.ObserveSlice(b)
		orc.Add(b...)
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	sv := workload.Fill(gen, stream)
	eng.ObserveSlice(sv)
	orc.Add(sv...)
	return eng, orc
}

func TestRankOfValue(t *testing.T) {
	const eps = 0.02
	eng, orc := loadedEngine(t, eps, 8, 2000, 1500, 41)
	n := float64(eng.TotalCount())
	// Probe values across the whole range.
	probes := []int64{}
	for _, phi := range []float64{0.05, 0.3, 0.5, 0.7, 0.95} {
		q, err := orc.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, q)
	}
	for _, v := range probes {
		exact := orc.Rank(v)
		got, qs, err := eng.Rank(v)
		if err != nil {
			t.Fatal(err)
		}
		// Accurate: exact, the live step counted value by value.
		if got != exact {
			t.Errorf("Rank(%d) = %d, exact %d (stats %+v)", v, got, exact, qs)
		}
		quick, err := RankQuick(eng, v)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(float64(quick - exact)); d > 1.5*eps*n+1 {
			t.Errorf("RankQuick(%d) = %d, exact %d (Δ=%g)", v, quick, exact, d)
		}
	}
	// Extremes.
	if r, _, err := eng.Rank(-1 << 60); err != nil || r != 0 {
		t.Errorf("Rank(min) = %d, %v", r, err)
	}
	if r, _, err := eng.Rank(1 << 60); err != nil || float64(r) != n {
		t.Errorf("Rank(max) = %d, want %g", r, n)
	}
}

// TestRankRequestOpensOncePerPartition: a request of 16 values opens each
// partition at most once, not once a value — at most P more IOStats.Opens,
// fewer where the device already holds a file's handle — and the same
// request again opens none. Both answer each value with its exact rank,
// partitions and live step alike.
func TestRankRequestOpensOncePerPartition(t *testing.T) {
	eng, orc := loadedEngine(t, 0.02, 8, 2000, 1500, 43)
	vs := make([]int64, 16)
	for i := range vs {
		q, err := orc.Quantile(float64(i+1) / 17)
		if err != nil {
			t.Fatal(err)
		}
		vs[i] = q + int64(i%3) - 1 // data values and their neighbours
	}
	p := eng.Status().Partitions
	for round, most := range []int{p, 0} {
		before := eng.DiskStats()
		ans, err := eng.Query(context.Background(), Request{Values: vs})
		if err != nil {
			t.Fatal(err)
		}
		if opens := eng.DiskStats().Sub(before).Opens; p < 2 || opens > uint64(most) {
			t.Errorf("request %d: 16 values over %d partitions opened %d files, want at most %d", round, p, opens, most)
		}
		for i, v := range vs {
			if want := orc.Rank(v); ans.Values[i] != want {
				t.Errorf("request %d: rank of %d = %d, oracle %d", round, v, ans.Values[i], want)
			}
		}
	}
}

func TestRankEmptyEngine(t *testing.T) {
	eng := OneStream(t, Options{Epsilon: 0.1, Dir: t.TempDir()})
	if _, _, err := eng.Rank(5); err == nil {
		t.Error("Rank on empty: want error")
	}
	if _, err := RankQuick(eng, 5); err == nil {
		t.Error("RankQuick on empty: want error")
	}
	if _, _, err := eng.Quantiles([]float64{0.5}); err == nil {
		t.Error("Quantiles on empty: want error")
	}
}

func TestQuantilesBatch(t *testing.T) {
	eng, orc := loadedEngine(t, 0.02, 8, 2000, 1500, 43)
	phis := []float64{0.5, 0.95, 0.99}
	vals, qs, err := eng.Quantiles(phis)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Fatalf("got %d values", len(vals))
	}
	m := float64(eng.StreamCount())
	for i, phi := range phis {
		r := int64(math.Ceil(phi * float64(orc.Count())))
		if d := float64(orc.SpanError(r, vals[i])); d > 1.5*0.02*m+1 {
			t.Errorf("phi=%g: error %g", phi, d)
		}
		// Batch answers must match the one-at-a-time answers.
		single, _, err := eng.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		if single != vals[i] {
			t.Errorf("phi=%g: batch %d != single %d", phi, vals[i], single)
		}
	}
	if qs.Elapsed <= 0 {
		t.Error("missing elapsed")
	}
	// Invalid phi anywhere in the batch fails the whole call.
	if _, _, err := eng.Quantiles([]float64{0.5, -1}); err == nil {
		t.Error("invalid phi in batch: want error")
	}
	// Empty batch is a no-op.
	vals, _, err = eng.Quantiles(nil)
	if err != nil || len(vals) != 0 {
		t.Errorf("empty batch: %v, %v", vals, err)
	}
}
