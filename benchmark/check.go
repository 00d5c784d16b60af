package main

import (
	"fmt"
	"math"

	"repro/internal/oracle"
	"repro/internal/query"
)

// answer is a query's reply in checkable form: one value row per group,
// aligned with the op's phis. A per-stream query has the single group "".
type answer struct {
	keys   []string
	values [][]int64
	n      []int64 // element count the server reported per group; nil if none
}

// checker is the correctness gate: an exact oracle per stream over the
// acknowledged values, against which every answer's rank error is bounded.
// Out-of-bound answers, error replies and client errors all count as failed
// operations.
type checker struct {
	ops       *opSeq
	acked     map[int][][]int64         // acknowledged step values by stream index
	oracles   map[string]*oracle.Oracle // built on first use after the last ack
	attempted int
	failed    int
	failures  []string // the first few, for the report
}

func newChecker(ops *opSeq) *checker {
	return &checker{ops: ops, acked: map[int][][]int64{}, oracles: map[string]*oracle.Oracle{}}
}

// ack records a step the server acknowledged.
func (c *checker) ack(st step) {
	c.acked[st.stream] = append(c.acked[st.stream], st.values)
	clear(c.oracles)
	c.attempted++
}

// fail records one failed operation.
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// opError counts an attempted operation that returned an error.
func (c *checker) opError(what string, err error) {
	c.attempted++
	c.fail("%s: %v", what, err)
}

// streamOracle returns the oracle over one stream's acknowledged values.
func (c *checker) streamOracle(stream int) *oracle.Oracle {
	key := fmt.Sprint("s:", stream)
	o, ok := c.oracles[key]
	if !ok {
		o = oracle.New(0)
		for _, vs := range c.acked[stream] {
			o.Add(vs...)
		}
		c.oracles[key] = o
	}
	return o
}

// groupOracle returns the oracle over the union of the plan's member
// streams whose group key is key.
func (c *checker) groupOracle(p *query.Plan, key string) (*oracle.Oracle, error) {
	if o, ok := c.oracles["g:"+key]; ok {
		return o, nil
	}
	o := oracle.New(0)
	for i, name := range c.ops.streams {
		if !p.MatchesStream(name) {
			continue
		}
		k, err := p.GroupKey(name)
		if err != nil {
			return nil, err
		}
		if k == key {
			for _, vs := range c.acked[i] {
				o.Add(vs...)
			}
		}
	}
	c.oracles["g:"+key] = o
	return o, nil
}

// rankBound is the stated envelope: ⌈ε·N⌉ for a single-stream accurate
// query, ⌈1.5·ε·N⌉ for a merged plan.
func rankBound(n int64, merged bool) int64 {
	f := epsilon
	if merged {
		f = 1.5 * epsilon
	}
	return int64(math.Ceil(f * float64(n)))
}

// check counts the query as attempted and fails it unless every value is
// within the rank-error bound of the oracle.
func (c *checker) check(op readOp, ans answer) {
	c.attempted++
	if err := c.verdict(op, ans); err != nil {
		c.fail("%v", err)
	}
}

func (c *checker) verdict(op readOp, ans answer) error {
	if op.plan == nil {
		if len(ans.values) != 1 {
			return fmt.Errorf("query %s: %d answer rows", c.ops.streams[op.stream], len(ans.values))
		}
		return withinBound(c.ops.streams[op.stream], c.streamOracle(op.stream), op.phis, ans.values[0], false)
	}
	p, err := query.ParsePlan(op.plan)
	if err != nil {
		return err
	}
	if len(ans.keys) == 0 {
		return fmt.Errorf("plan %s: no groups in reply", op.plan)
	}
	for i, key := range ans.keys {
		o, err := c.groupOracle(p, key)
		if err != nil {
			return err
		}
		if ans.n != nil && ans.n[i] != o.Count() {
			return fmt.Errorf("plan group %q: server covers %d values, %d were acknowledged", key, ans.n[i], o.Count())
		}
		if err := withinBound("group "+key, o, op.phis, ans.values[i], true); err != nil {
			return err
		}
	}
	return nil
}

// targetRank is the rank a φ-quantile over n values asks for: ⌈φ·n⌉ in [1, n].
func targetRank(phi float64, n int64) int64 {
	return min(max(int64(math.Ceil(phi*float64(n))), 1), n)
}

func withinBound(what string, o *oracle.Oracle, phis []float64, got []int64, merged bool) error {
	if len(got) != len(phis) {
		return fmt.Errorf("%s: %d values for %d targets", what, len(got), len(phis))
	}
	n := o.Count()
	bound := rankBound(n, merged)
	for i, phi := range phis {
		target := targetRank(phi, n)
		if e := o.SpanError(target, got[i]); e > bound {
			return fmt.Errorf("%s: phi=%g answer %d is %d ranks from target %d of N=%d (bound %d)", what, phi, got[i], e, target, n, bound)
		}
	}
	return nil
}

// rankErrOverEps is the worst rank error of an answer as a multiple of ε·N
// (the per-layer accuracy figure; ≤ 1 means inside the paper's bound).
func rankErrOverEps(o *oracle.Oracle, phis []float64, got []int64) float64 {
	n := o.Count()
	worst := 0.0
	for i, phi := range phis {
		if e := float64(o.SpanError(targetRank(phi, n), got[i])) / (epsilon * float64(n)); e > worst {
			worst = e
		}
	}
	return worst
}

// oracleOf builds an oracle over the given steps' values.
func oracleOf(steps [][]int64) *oracle.Oracle {
	o := oracle.New(0)
	for _, vs := range steps {
		o.Add(vs...)
	}
	return o
}

// planErrOverBound is the worst rank error of a merged answer as a multiple
// of its ⌈1.5·ε·N⌉ envelope, over every group and target.
func (c *checker) planErrOverBound(op readOp, ans answer) (float64, error) {
	p, err := query.ParsePlan(op.plan)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for i, key := range ans.keys {
		o, err := c.groupOracle(p, key)
		if err != nil {
			return 0, err
		}
		if len(ans.values[i]) != len(op.phis) {
			return 0, fmt.Errorf("group %q: %d values for %d targets", key, len(ans.values[i]), len(op.phis))
		}
		worst = max(worst, rankErrOverEps(o, op.phis, ans.values[i])/1.5)
	}
	return worst, nil
}
