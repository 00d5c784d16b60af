package hsq

import (
	"context"
)

// Context variants of the mutating methods (reads take their context
// through Query). Each checks the context before starting. Load-side work
// (EndStepCtx) is checked only at entry: a partition load or level merge
// must run to completion once started, or the warehouse would be left with
// a half-written partition.

// ObserveCtx is Observe with error reporting: the element is dropped (and
// the context error returned) if ctx is already done, and ErrClosed is
// returned — unlike Observe's silent no-op — on a closed engine.
func (e *Engine) ObserveCtx(ctx context.Context, v int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return e.observe(v)
}

// ObserveSliceCtx is ObserveSlice with error reporting; the slice is
// observed atomically or not at all.
func (e *Engine) ObserveSliceCtx(ctx context.Context, vs []int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return e.observeSlice(vs)
}

// EndStepCtx is EndStep with cancellation. It is checked at entry, and —
// under async maintenance — while blocked on MaxPendingSteps backpressure:
// a cancelled producer stops waiting for the maintenance backlog to drain.
// A started load/merge still runs to completion to keep the warehouse
// consistent.
func (e *Engine) EndStepCtx(ctx context.Context) (UpdateStats, error) {
	if err := ctx.Err(); err != nil {
		return UpdateStats{}, err
	}
	return e.endStep(ctx)
}
