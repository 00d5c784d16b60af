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

// RankOfValues computes the rank of each value v in T exactly: the count of
// historical elements ≤ v (one block-granular binary search per partition)
// plus the count of the pieces' elements ≤ v, which are whole (StreamPiece.Merge).
// It is the inverse primitive of the accurate quantile query and, reading
// only the partitions and the pieces, builds no combined summary. Like the
// sweep, it opens one cursor per partition for the whole request and seeks
// it to each value in turn. The cost covers every value: one iteration
// each, and the reads of all their searches.
func RankOfValues(sums []*partition.Summary, pieces []StreamPiece, vs []int64, pinBlocks bool) ([]int64, QueryCost, error) {
	sw := &sweep{c: &Combined{sums: sums}, opts: QueryOptions{PinBlocks: pinBlocks}}
	out := make([]int64, len(vs))
	var err error
	for k, v := range vs {
		var hist int64
		if hist, err = sw.cursorProbe(v); err != nil {
			break
		}
		out[k] = hist + streamRank(pieces, v)
	}
	cost := QueryCost{Iterations: len(vs)}
	sw.close(&cost)
	if err != nil {
		return nil, cost, err
	}
	return out, cost, nil
}
