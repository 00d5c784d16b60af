package hsq

import (
	"context"
	"errors"
	"math"
	"reflect"
	"regexp"
	"testing"
)

// TestPublicReadSurface pins the read surface: on *Stream, the one public
// handle, the exported methods that read quantiles or ranks are Query and
// its three conveniences — four in all. A new variant beside them (another
// Opts, Ctx, Quick or Window form) fails here; its behaviour belongs in a
// Request field.
func TestPublicReadSurface(t *testing.T) {
	read := regexp.MustCompile(`Quantile|Rank|Window|Query`)
	allowed := map[string]bool{"Query": true, "Quantile": true, "Quantiles": true, "Rank": true}
	// AvailableWindows lists window sizes; it answers no quantile or rank.
	notARead := map[string]bool{"AvailableWindows": true}
	total := 0
	typ := reflect.TypeOf(&Stream{})
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		if !read.MatchString(name) || notARead[name] {
			continue
		}
		total++
		if !allowed[name] {
			t.Errorf("%v.%s: a read method outside Query/Quantile/Quantiles/Rank", typ, name)
		}
	}
	if total != 4 {
		t.Errorf("%d exported read methods on *Stream, want 4", total)
	}
}

// TestRequestShapes covers the request forms that are not a bound on an
// answer: target kinds do not mix, no targets is a no-op, a bad window or
// an empty scope is an error — the same on the accurate and quick paths —
// and combinations no pre-Request method offered (several φ in a window,
// rank of a value in a window, a budget in a window) are just requests.
func TestRequestShapes(t *testing.T) {
	eng, orc := loadedEngine(t, 0.02, 8, 2000, 1500, 47)
	ctx := context.Background()
	for _, quick := range []bool{false, true} {
		for name, req := range map[string]Request{
			"phis+ranks":     {Phis: []float64{0.5}, Ranks: []int64{1}},
			"phis+values":    {Phis: []float64{0.5}, Values: []int64{1}},
			"ranks+values":   {Ranks: []int64{1}, Values: []int64{1}},
			"negativeWindow": {Phis: []float64{0.5}, Window: -1},
			"misaligned":     {Phis: []float64{0.5}, Window: 1 << 20},
			"phi>1":          {Phis: []float64{0.5, 7}},
		} {
			req.Quick = quick
			if _, err := eng.Query(ctx, req); err == nil {
				t.Errorf("%s (quick=%v): want error", name, quick)
			}
		}
		a, err := eng.Query(ctx, Request{Quick: quick})
		if err != nil || len(a.Values) != 0 || a.N != orc.Count() {
			t.Errorf("no targets (quick=%v): %+v, %v; want an empty answer over N=%d", quick, a, err, orc.Count())
		}
	}

	// One snapshot behind every field of the answer: the rank of a value no
	// element exceeds is N, plus at most the stream estimate's ε₂ band.
	a, err := eng.Query(ctx, Request{Values: []int64{math.MaxInt64}})
	if err != nil {
		t.Fatal(err)
	}
	if a.N != orc.Count() || a.Values[0] < a.N || a.Values[0] > a.N+int64(0.02*float64(eng.StreamCount()))+1 {
		t.Errorf("rank of MaxInt64 = %d over N = %d (oracle %d)", a.Values[0], a.N, orc.Count())
	}

	wins := eng.AvailableWindows()
	w := wins[0]
	wa, err := eng.Query(ctx, Request{Phis: []float64{0.1, 0.5, 0.9}, Window: w, MaxReads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(wa.Values) != 3 || wa.N >= a.N || !(wa.Values[0] <= wa.Values[1] && wa.Values[1] <= wa.Values[2]) {
		t.Errorf("window %d: %+v (full N = %d)", w, wa, a.N)
	}
	// A windowed rank counts only the window: the median of the window has
	// about half the window's elements below it.
	wr, err := eng.Query(ctx, Request{Values: []int64{wa.Values[1]}, Window: w})
	if err != nil {
		t.Fatal(err)
	}
	if wr.N != wa.N || math.Abs(float64(wr.Values[0])-float64(wr.N)/2) > 4*0.02*float64(wr.N)+1 {
		t.Errorf("window %d: rank of its median %d = %d of N = %d", w, wa.Values[1], wr.Values[0], wr.N)
	}

	empty := newEngine(t, 0.1, 3)
	for _, req := range []Request{{Phis: []float64{0.5}}, {Ranks: []int64{1}}, {Values: []int64{5}}, {Phis: []float64{0.5}, Quick: true}} {
		if _, err := empty.Query(ctx, req); err == nil {
			t.Errorf("%+v on an empty engine: want error", req)
		}
	}
}

// pollCtx is a context that reports cancellation from its after-th Err
// poll on — a request cancelled while its bisection is under way.
type pollCtx struct {
	context.Context
	polls, after int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestQueryCancelMidBisection: Query polls its context between bisection
// probes, so a request cancelled after it started abandons the search
// instead of finishing its disk reads.
func TestQueryCancelMidBisection(t *testing.T) {
	eng, _ := loadedEngine(t, 0.005, 8, 4000, 3000, 53)
	req := Request{Phis: []float64{0.13, 0.31, 0.62, 0.77}}
	full, err := eng.Query(&pollCtx{Context: context.Background(), after: math.MaxInt}, req)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Iterations < 2 {
		t.Skipf("the sweep needs only %d probes at this scale; nothing to interrupt", full.Stats.Iterations)
	}
	// Poll 1 is Query's entry check; poll 2 precedes the first probe.
	ctx := &pollCtx{Context: context.Background(), after: 2}
	if _, err := eng.Query(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled after the first probe: %v, want context.Canceled", err)
	}
	if ctx.polls != ctx.after+1 {
		t.Errorf("the sweep polled %d times after cancellation was reported at poll %d", ctx.polls-ctx.after-1, ctx.after+1)
	}
}
