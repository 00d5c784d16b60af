package crashtest

import (
	"testing"
)

// TestNodeKill runs the seeded node-kill scenario for a few seeds: each
// picks a different kill point and workload mix. The heavier sweep
// (more seeds, bigger steps) belongs to the CI cluster-e2e job via
// -run TestNodeKill -count; this in-tree run keeps the default suite fast.
func TestNodeKill(t *testing.T) {
	if testing.Short() {
		t.Skip("node-kill harness is a multi-node socket test; skipped in -short")
	}
	for _, seed := range []int64{1, 7} {
		if err := RunNodeKill(NodeKillConfig{Seed: seed, Logf: t.Logf}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
