package hsq

import "repro/internal/query"

// Query starts a composable query over the DB's streams. The builder only
// assembles a plan — nothing is touched until Run, which expands the
// stream selection against the directory snapshot, pulls one scoped
// summary per (member, window) and answers every group by quick queries
// over the merged summaries. Cold streams answer from their sealed
// summary sidecars, so a glob over a mostly-evicted fleet does not
// hydrate it.
//
//	res, err := db.Query().Match("api.*.latency").GroupBy(2).Phis(0.99).Run()
func (db *DB) Query() *Query {
	return &Query{db: db}
}

// Query is the builder; methods return the receiver for chaining.
type Query struct {
	db   *DB
	plan query.Plan
}

// Streams adds explicit member streams (must exist at Run time).
func (q *Query) Streams(names ...string) *Query {
	q.plan.Streams = append(q.plan.Streams, names...)
	return q
}

// Match selects every directory stream matching the '.'-segment glob
// (e.g. "api.*.latency", "sensors.**"). See query.MatchStream.
func (q *Query) Match(pattern string) *Query {
	q.plan.Match = pattern
	return q
}

// GroupBy groups members by the 1-based '.'-separated name segment.
func (q *Query) GroupBy(segment int) *Query {
	q.plan.GroupBy = segment
	return q
}

// Window evaluates a single window of the most recent `steps` time steps
// instead of the full history.
func (q *Query) Window(steps int) *Query {
	return q.Windows(steps, 0, 1)
}

// Windows evaluates a series of `count` windows of `steps` time steps,
// each slid `slide` steps further into the past (slide 0 = tumbling,
// i.e. slide = steps). Windows are relative to each member stream's own
// newest step.
func (q *Query) Windows(steps, slide, count int) *Query {
	q.plan.Window = &query.WindowSpec{Steps: steps, Slide: slide, Count: count}
	return q
}

// AsOfStep time-travels the evaluation to the state as of sealed step n,
// riding the snapshot chain's immutable step prefix; the live buffer is
// excluded. Partition merges coarsen the step boundaries available to old
// as-of points over time.
func (q *Query) AsOfStep(n int) *Query {
	q.plan.AsOfStep = n
	return q
}

// Phis sets the quantile targets, each in (0, 1).
func (q *Query) Phis(phis ...float64) *Query {
	q.plan.Phis = append(q.plan.Phis, phis...)
	return q
}

// Plan returns a copy of the assembled plan (e.g. to serialize for a
// Subscribe continuous query).
func (q *Query) Plan() query.Plan { return q.plan }

// Run evaluates the query against the DB.
func (q *Query) Run() (*query.Result, error) {
	return q.db.RunPlan(&q.plan)
}

// RunPlan evaluates an already-built plan against the DB — the entry
// point for POST /query and Subscribe continuous queries, whose plans
// arrive as JSON. The DB is the executor's query.Source: Streams names the
// directory, ScopedSummary (coldsummary.go) fetches each member.
func (db *DB) RunPlan(p *query.Plan) (*query.Result, error) {
	return query.Exec(db, p)
}
