package partition

import "fmt"

// Shared parameter validation — the single source of truth for the
// invariants both the public options (hsq.Options) and the store
// config re-check. Keeping the range checks here means the two layers
// cannot drift apart: the engine validates the user-facing ε and κ through
// the same predicates the store applies to its derived ε₁.

// ValidateEpsilon checks the approximation parameter ε ∈ (0,1).
func ValidateEpsilon(eps float64) error {
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("Epsilon must be in (0,1), got %g", eps)
	}
	return nil
}

// ValidateEps1 checks the derived historical parameter ε₁ ∈ (0,1).
func ValidateEps1(eps1 float64) error {
	if eps1 <= 0 || eps1 >= 1 {
		return fmt.Errorf("eps1 must be in (0,1), got %g", eps1)
	}
	return nil
}

// ValidateKappa checks the merge threshold κ ≥ 2.
func ValidateKappa(kappa int) error {
	if kappa < 2 {
		return fmt.Errorf("Kappa must be >= 2, got %d", kappa)
	}
	return nil
}
