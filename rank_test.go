package hsq

import (
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
	m := float64(eng.StreamCount())
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
		// Accurate rank error: stream-only, ~εm/4; assert εm/2 for slack.
		if d := math.Abs(float64(got - exact)); d > eps*m/2+1 {
			t.Errorf("Rank(%d) = %d, exact %d (Δ=%g > %g, stats %+v)", v, got, exact, d, eps*m/2+1, qs)
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
	if r, _, err := eng.Rank(1 << 60); err != nil || math.Abs(float64(r)-n) > eps*m/2+1 {
		t.Errorf("Rank(max) = %d, want ~%g", r, n)
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
