package core

import "repro/internal/partition"

// QuickRank estimates the rank of an arbitrary value v in T using only the
// combined summary: the midpoint of L(v) and U(v) (0 below every entry), so
// it errs by at most (U − L)/2 ≤ εN/2 — the quick-response analogue for rank
// queries.
func (c *Combined) QuickRank(v int64) int64 {
	l, u := c.boundsAt(v)
	return (l + u) / 2
}

// RankOfValues computes the rank of each value v in T accurately: the exact
// count of historical elements ≤ v (one block-granular binary search per
// partition) plus the SS-based stream estimate, so each error is at most
// ε₂m/2 = εm/8. It is the inverse primitive of the accurate quantile query
// and, reading only the partitions and the pieces, builds no combined
// summary. The cost covers every value: one iteration each, and the reads
// of all their searches.
func RankOfValues(sums []*partition.Summary, pieces []StreamPiece, eps2 float64, vs []int64, pinBlocks bool) ([]int64, QueryCost, error) {
	cost := QueryCost{Iterations: len(vs)}
	out := make([]int64, len(vs))
	for k, v := range vs {
		total := streamRankEstimate(pieces, eps2, v)
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
