package core

import "repro/internal/partition"

// QuickRank estimates the rank of an arbitrary value v in T using only the
// combined summary: the midpoint of L(v) and U(v), which are the bounds of
// the largest summary element ≤ v (0 when there is none). The error is at
// most εN/2 + the inter-entry gap εN, i.e. O(εN) — the quick-response
// analogue for rank queries. At or above the top entries the bounds
// overshoot N by about ε₂m + ε₁n/2, so the midpoint is clamped to N: no
// scope holds more elements than it counts.
func (c *Combined) QuickRank(v int64) int64 {
	l, u := c.boundsAt(v)
	return min(int64((l+u)/2), c.N())
}

// RankOfValues computes the rank of each value v in T accurately: the exact
// count of historical elements ≤ v (one block-granular binary search per
// partition) plus the SS-based stream estimate, so each error is at most
// ~ε₂m = εm/4. It is the inverse primitive of the accurate quantile query
// and, reading only the partitions and the pieces, builds no combined
// summary. The cost covers every value: one iteration each, and the reads
// of all their searches.
func RankOfValues(sums []*partition.Summary, pieces []StreamPiece, eps2 float64, vs []int64, pinBlocks bool) ([]int64, QueryCost, error) {
	cost := QueryCost{Iterations: len(vs)}
	out := make([]int64, len(vs))
	for k, v := range vs {
		var total float64
		for i, p := range pieces {
			// A summary holds β₂ = ⌈1/ε₂+1⌉ entries, so a value at or above
			// all of them scores M + ε₂M; a piece cannot hold more than its M.
			// (The sweep shares streamRankEstimate and keeps it unclamped.)
			total += min(streamRankEstimate(pieces[i:i+1], eps2, v), float64(p.M))
		}
		for _, s := range sums {
			cur, err := partition.NewCursor(s, v, v, pinBlocks)
			if err != nil {
				return nil, cost, err
			}
			p, err := cur.Rank(v)
			if err != nil {
				cur.Close() //nolint:errcheck
				return nil, cost, err
			}
			cost.RandReads += cur.Reads()
			cost.CacheHits += cur.CacheHits()
			cost.SkippedBlocks += cur.Skips()
			if err := cur.Close(); err != nil {
				return nil, cost, err
			}
			total += float64(p)
		}
		out[k] = int64(total)
	}
	return out, cost, nil
}
