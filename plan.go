package hsq

import (
	"fmt"
	"math"
)

// Plan chooses the approximation parameter ε for a total summary-memory
// budget, following the paper's experimental protocol (§3.1): half the
// budget goes to the historical summary HS and half to the stream summary
// SS, which is within a factor two of the optimal split.
//
// The memory models are the paper's bounds with our concrete constants:
//
//	HS(ε) = κ · ⌈log_κ T⌉ · β₁ · 16 bytes,  β₁ = ⌈2/ε + 1⌉   (Lemma 8)
//	SS(ε) = 24 bytes · tuples(ε/8, m)                        (Lemma 9)
//
// where tuples(e, m) = (1/(2e))·max(1, log₂(2·e·m)) is the Greenwald-Khanna
// worst-case size at the sketch's internal parameter ε₂/2 = ε/8: the paper's
// stream summary, which keeps no stream. The engine keeps the live step raw,
// because EndStep writes it, so its MemoryUsage.StreamBytes is the batch,
// 8 bytes a value, and SS(ε) is the paper's model only. HS charges
// an entry 16 bytes, the paper's value plus disk address, though a held
// summary derives the address and measures 8: the constant fixes the ε every
// budget-driven figure runs at.
//
// Plan returns the smallest ε (highest accuracy) whose planned HS and SS
// each fit in half the budget. streamSize is the per-step stream size m and
// steps is the total number of time steps T.
func Plan(budgetBytes int64, streamSize int64, steps, kappa int) (float64, error) {
	if budgetBytes <= 0 {
		return 0, fmt.Errorf("hsq: budget must be positive, got %d", budgetBytes)
	}
	if streamSize <= 0 {
		return 0, fmt.Errorf("hsq: stream size must be positive, got %d", streamSize)
	}
	if steps < 1 {
		return 0, fmt.Errorf("hsq: steps must be >= 1, got %d", steps)
	}
	if kappa < 2 {
		return 0, fmt.Errorf("hsq: kappa must be >= 2, got %d", kappa)
	}
	half := float64(budgetBytes) / 2

	epsHS := solveMonotone(func(eps float64) float64 { return PlannedHistBytes(eps, steps, kappa) - half })
	epsSS := solveMonotone(func(eps float64) float64 { return PlannedStreamBytes(eps, streamSize) - half })
	eps := math.Max(epsHS, epsSS)
	if eps >= 0.5 {
		return 0, fmt.Errorf("hsq: budget %d bytes too small for T=%d steps, m=%d (need ε < 0.5)",
			budgetBytes, steps, streamSize)
	}
	return eps, nil
}

// PlannedHistBytes is the HS memory model used by Plan.
func PlannedHistBytes(eps float64, steps, kappa int) float64 {
	beta1 := math.Ceil(2/eps + 1)
	levels := math.Ceil(math.Log(float64(steps)) / math.Log(float64(kappa)))
	if levels < 1 {
		levels = 1
	}
	return float64(kappa) * levels * beta1 * 16
}

// PlannedStreamBytes is the SS memory model used by Plan (Lemma 9): a GK
// sketch at internal parameter ε/8 charged 24 bytes per tuple. It is the
// paper's budget, not what the engine holds (MemoryUsage.StreamBytes).
func PlannedStreamBytes(eps float64, streamSize int64) float64 {
	e := eps / 8
	tuples := (1 / (2 * e)) * math.Max(1, math.Log2(math.Max(2, 2*e*float64(streamSize))))
	return 24 * tuples
}

// solveMonotone finds the smallest eps in [1e-9, 0.5] for which f(eps) <= 0,
// given f monotone decreasing in eps. Returns 0.5 if no eps satisfies it.
func solveMonotone(f func(float64) float64) float64 {
	lo, hi := 1e-9, 0.5
	if f(hi) > 0 {
		return hi
	}
	if f(lo) <= 0 {
		return lo
	}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: eps spans decades
		if f(mid) <= 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
