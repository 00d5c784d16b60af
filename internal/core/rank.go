package core

import "repro/internal/partition"

// QuickRank estimates the rank of an arbitrary value v in T using only the
// combined summary: the midpoint of L(v) and U(v), which are the bounds of
// the largest summary element ≤ v (0 when there is none). The error is at
// most εN/2 + the inter-entry gap εN, i.e. O(εN) — the quick-response
// analogue for rank queries.
func (c *Combined) QuickRank(v int64) int64 {
	l, u := c.boundsAt(v)
	return int64((l + u) / 2)
}

// RankOfValue computes the rank of an arbitrary value v in T accurately:
// the exact count of historical elements ≤ v (one block-granular binary
// search per partition) plus the SS-based stream estimate, so the total
// error is at most ~ε₂m = εm/4. It is the inverse primitive of the accurate
// quantile query and, reading only the partitions and the pieces, builds
// no combined summary.
func RankOfValue(sums []*partition.Summary, pieces []StreamPiece, eps2 float64, v int64, pinBlocks bool) (int64, QueryCost, error) {
	var cost QueryCost
	var total float64
	for i, p := range pieces {
		// A summary holds β₂ = ⌈1/ε₂+1⌉ entries, so a value at or above all
		// of them scores M + ε₂M; a piece cannot hold more than its M. (The
		// sweep shares streamRankEstimate and keeps it unclamped.)
		total += min(streamRankEstimate(pieces[i:i+1], eps2, v), float64(p.M))
	}
	for _, s := range sums {
		cur, err := partition.NewCursor(s, v, v, pinBlocks)
		if err != nil {
			return 0, cost, err
		}
		p, err := cur.Rank(v)
		if err != nil {
			cur.Close() //nolint:errcheck
			return 0, cost, err
		}
		cost.RandReads += cur.Reads()
		cost.CacheHits += cur.CacheHits()
		cost.SkippedBlocks += cur.Skips()
		if err := cur.Close(); err != nil {
			return 0, cost, err
		}
		total += float64(p)
	}
	cost.Iterations = 1
	return int64(total), cost, nil
}
