package core

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/disk"
	"repro/internal/gk"
	"repro/internal/partition"
)

// TestAccurateQueryMemBackend runs the Figure 3 query pipeline with the
// warehouse on the in-memory backend: results and error bounds must be
// identical to the file-backed runs.
func TestAccurateQueryMemBackend(t *testing.T) {
	dev, err := disk.NewManagerOn(disk.NewMemBackend(), 64)
	if err != nil {
		t.Fatal(err)
	}
	store, err := partition.NewStore(dev, partition.Config{Kappa: 10, Eps1: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(lo, hi int64) []int64 {
		out := make([]int64, 0, hi-lo+1)
		for v := lo; v <= hi; v++ {
			out = append(out, v)
		}
		return out
	}
	var all []int64
	for i, batch := range [][]int64{mk(1, 100), mk(101, 200), mk(2, 201)} {
		if _, err := store.AddBatch(batch, i+1); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
	g := gk.MustNew(1.0 / 16)
	stream := mk(401, 600)
	for _, v := range stream {
		g.Insert(v)
	}
	all = append(all, stream...)
	slices.Sort(all)

	const eps = 0.5
	m := int64(len(stream))
	ss := StreamSummary(g, 0.125)
	c := BuildPieces(store.Entries(), onePiece(ss, m), 0.25, 0.125)

	for _, r := range []int64{1, 100, 250, 400, 500, int64(len(all))} {
		ans, cost, err := accurateOne(c, eps, r, QueryOptions{PinBlocks: true})
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		// The answer's true rank must be within ε·m of the target.
		rank := int64(sort.Search(len(all), func(i int) bool { return all[i] > ans }))
		if diff := rank - r; diff > int64(eps*float64(m)) || diff < -int64(eps*float64(m)) {
			t.Errorf("rank %d: answer %d has rank %d (off by %d, bound %g)",
				r, ans, rank, diff, eps*float64(m))
		}
		if cost.RandReads < 0 {
			t.Errorf("rank %d: negative reads", r)
		}
	}
	if dev.Stats().RandReads == 0 {
		t.Error("accurate queries issued no random reads on mem backend")
	}
}
