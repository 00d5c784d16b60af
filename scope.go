package hsq

import (
	"repro/internal/core"
	"repro/internal/query"
)

// One summary path. Every read that needs "this stream's summaries for this
// step scope" — Query{Window}, a plan member, a peer's SummaryReq, the
// sidecar writer — takes one snapshot and narrows it with querySnap.scope,
// which asks query.Scope.Select which spans belong: the one selector, over
// the snapshot's span ends here and over a decoded sidecar's part end steps
// in coldsummary.go.
// The snapshot's partitions arrive oldest-first from partition.Version and
// the sealed pieces follow oldest-first, so the spans are one chronological
// list and a scope is an index range of it.

// ends lists the last step of each of the snapshot's spans, oldest first:
// the installed partitions, then the sealed-but-uninstalled steps (piece i
// is step installed+1+i — the snapshot keeps exactly the pieces the pinned
// version has not installed, and sealed steps are consecutive).
func (s *querySnap) ends() []int {
	ends := make([]int, 0, len(s.sums)+s.sealed)
	for _, ps := range s.sums {
		ends = append(ends, ps.Part.EndStep)
	}
	for i := 1; i <= s.sealed; i++ {
		ends = append(ends, s.ver.InstalledSteps()+i)
	}
	return ends
}

// scope narrows the snapshot to sc. The full-history zero scope leaves it
// as it is; any other scope reads a subset of the version's partitions, so
// the version memo (keyed by full-history ranks) no longer applies.
func (s *querySnap) scope(sc query.Scope) error {
	if sc.IsFull() {
		return nil
	}
	lo, hi, live, err := sc.Select(s.ends())
	if err != nil {
		return err
	}
	np := len(s.sums)
	a, b := max(lo, np)-np, max(hi, np)-np // the sealed pieces in scope
	s.sums, s.sealed = s.sums[min(lo, np):min(hi, np)], b-a
	if live { // the scope ends at the newest span, so pieces[b:] is the live piece
		s.pieces = s.pieces[a:]
	} else {
		s.pieces, s.m = s.pieces[a:b], 0
	}
	s.memo, s.n = nil, 0
	for _, ps := range s.sums {
		s.n += ps.Part.Count
	}
	for _, p := range s.pieces {
		s.n += p.M
	}
	return nil
}

// ScopedSummary captures the engine's in-memory summary state restricted to
// a query-layer step scope — the partition summaries (with their step
// ranges) and stream-side pieces of the scope's spans, plus the live buffer's
// when the scope is the newest — as a portable core.ShardSummary. It is what
// a plan member contributes and, with the zero scope, both the scatter half
// of the cluster's scatter-gather read and, when no piece is in it, the
// stream's cold-summary sidecar. The snapshot is taken under the same pin
// discipline as queries, so the summary is a consistent point-in-time view
// while ingest and maintenance run; it references the engine's immutable
// summary slices and stays valid after the call.
func (e *engine) ScopedSummary(sc query.Scope) (*core.ShardSummary, error) {
	s, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	defer s.release()
	if err := s.scope(sc); err != nil {
		return nil, err
	}
	sum := &core.ShardSummary{N: s.n, Eps1: e.eps1, Eps2: e.eps2, Pieces: s.pieces}
	if len(s.sums) > 0 {
		sum.Parts = make([]core.PartSummary, 0, len(s.sums))
		for _, ps := range s.sums {
			sum.Parts = append(sum.Parts, core.PartSummary{
				Count: ps.Part.Count, StartStep: ps.Part.StartStep, EndStep: ps.Part.EndStep, Values: ps.Values,
			})
		}
	}
	return sum, nil
}
