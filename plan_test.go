package hsq

import (
	"testing"
)

func TestPlanValidation(t *testing.T) {
	if _, err := Plan(0, 1000, 10, 10); err == nil {
		t.Error("budget=0: want error")
	}
	if _, err := Plan(1000, 0, 10, 10); err == nil {
		t.Error("stream=0: want error")
	}
	if _, err := Plan(1000, 1000, 0, 10); err == nil {
		t.Error("steps=0: want error")
	}
	if _, err := Plan(1000, 1000, 10, 1); err == nil {
		t.Error("kappa=1: want error")
	}
	// Impossibly small budget.
	if _, err := Plan(10, 1_000_000, 100, 10); err == nil {
		t.Error("tiny budget: want error")
	}
}

func TestPlanFitsBudget(t *testing.T) {
	for _, budget := range []int64{64 << 10, 256 << 10, 1 << 20, 16 << 20} {
		eps, err := Plan(budget, 1_000_000, 100, 10)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if eps <= 0 || eps >= 0.5 {
			t.Fatalf("budget %d: eps = %g", budget, eps)
		}
		half := float64(budget) / 2
		if hs := PlannedHistBytes(eps, 100, 10); hs > half*1.01 {
			t.Errorf("budget %d: planned HS %g > half %g", budget, hs, half)
		}
		if ss := PlannedStreamBytes(eps, 1_000_000); ss > half*1.01 {
			t.Errorf("budget %d: planned SS %g > half %g", budget, ss, half)
		}
	}
}

func TestPlanMonotone(t *testing.T) {
	// More memory must never hurt accuracy.
	prev := 1.0
	for _, budget := range []int64{32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20} {
		eps, err := Plan(budget, 1_000_000, 100, 10)
		if err != nil {
			t.Fatal(err)
		}
		if eps > prev {
			t.Errorf("eps increased with budget: %g after %g", eps, prev)
		}
		prev = eps
	}
}

// TestPlanMatchesReality runs an engine at a planned ε and verifies the live
// memory stays within twice the budget, the live step's raw batch included.
func TestPlanMatchesReality(t *testing.T) {
	const (
		budget = int64(512 << 10)
		m      = 20000
		steps  = 20
		kappa  = 10
	)
	eps, err := Plan(budget, m, steps, kappa)
	if err != nil {
		t.Fatal(err)
	}
	eng := OneStream(t, Options{Epsilon: eps, Kappa: kappa, Dir: t.TempDir(), BlockSize: 4096})
	for step := 0; step < steps; step++ {
		for i := 0; i < m; i++ {
			eng.Observe(int64((step*m + i) % 100000))
		}
		mu := eng.MemoryUsage()
		if mu.Total() > 2*budget {
			t.Fatalf("step %d: live memory %d exceeds 2×budget %d (eps=%g)", step, mu.Total(), budget, eps)
		}
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
}
