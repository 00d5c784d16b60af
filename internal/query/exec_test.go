package query

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

const tEps1 = 0.05

// synthSummary builds a small deterministic shard summary; the seed keys
// the content so distinct streams carry distinct data.
func synthSummary(seed int64, parts, pieces int) *core.ShardSummary {
	rng := rand.New(rand.NewSource(seed))
	s := &core.ShardSummary{Eps1: tEps1}
	sorted := func(n int) []int64 {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = rng.Int63n(10_000)
		}
		slices.Sort(vs)
		return vs
	}
	for i := 0; i < parts; i++ {
		count := int64(100 + rng.Intn(1000))
		s.Parts = append(s.Parts, core.PartSummary{Count: count, Values: sorted(5 + rng.Intn(20))})
		s.N += count
	}
	for i := 0; i < pieces; i++ {
		m := int64(1 + rng.Intn(500))
		s.Pieces = append(s.Pieces, core.StreamPiece{M: m, SS: sorted(1 + rng.Intn(10))})
		s.N += m
	}
	return s
}

// fakeSource serves canned summaries and counts fetches.
type fakeSource struct {
	names []string
	fetch func(name string, sc Scope) (*core.ShardSummary, error)

	mu    sync.Mutex
	calls int
}

func (f *fakeSource) Streams() []string { return f.names }

func (f *fakeSource) ScopedSummary(name string, sc Scope) (*core.ShardSummary, error) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	return f.fetch(name, sc)
}

// TestExecMergedMatchesDirect pins Exec's plumbing: a merged query answers
// exactly what MergeShardSummaries + QuickQuery produce over the same
// member summaries, and the envelope echoes the merged summary's composed
// error bound.
func TestExecMergedMatchesDirect(t *testing.T) {
	sums := map[string]*core.ShardSummary{
		"a.x": synthSummary(1, 3, 1),
		"a.y": synthSummary(2, 0, 2),
		"b.x": synthSummary(3, 2, 0),
	}
	src := &fakeSource{
		names: []string{"a.x", "a.y", "b.x"},
		fetch: func(name string, sc Scope) (*core.ShardSummary, error) { return sums[name], nil },
	}
	phis := []float64{0.25, 0.5, 0.9}
	res, err := Exec(src, &Plan{Match: "**", Phis: phis})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Streams, src.names) {
		t.Fatalf("members = %v, want %v", res.Streams, src.names)
	}
	if len(res.Groups) != 1 || res.Groups[0].Key != "" {
		t.Fatalf("groups = %+v, want one unkeyed group", res.Groups)
	}
	wr := res.Groups[0].Windows[0]

	merged, total, err := core.MergeShardSummaries(
		[]*core.ShardSummary{sums["a.x"], sums["a.y"], sums["b.x"]})
	if err != nil {
		t.Fatal(err)
	}
	if wr.N != total {
		t.Fatalf("N = %d, want %d", wr.N, total)
	}
	if wr.Epsilon != merged.Epsilon() || wr.RankError != merged.QuickRankError() {
		t.Fatalf("envelope (ε=%g, re=%d), want (ε=%g, re=%d)",
			wr.Epsilon, wr.RankError, merged.Epsilon(), merged.QuickRankError())
	}
	for i, phi := range phis {
		r, err := core.RankTarget(phi, total)
		if err != nil {
			t.Fatal(err)
		}
		want, err := merged.QuickQuery(r)
		if err != nil {
			t.Fatal(err)
		}
		if wr.Values[i] != want {
			t.Fatalf("phi %g: got %d, want %d", phi, wr.Values[i], want)
		}
	}
}

// TestAnswerAllocatesNoTS: a group's answer is selected from its members'
// runs where they lie, so what it allocates must not grow with δ. Over 100
// runs of 2001 values a materialised TS was 200 100 entries × 24 B = 4.8 MB
// before its scratch; the selector's share is O(runs) per target.
func TestAnswerAllocatesNoTS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sums := make([]*core.ShardSummary, 10)
	for i := range sums {
		sums[i] = &core.ShardSummary{Eps1: 0.0005}
		for p := 0; p < 10; p++ {
			vs := make([]int64, 2001)
			for j := range vs {
				vs[j] = rng.Int63n(1 << 40)
			}
			slices.Sort(vs)
			sums[i].Parts = append(sums[i].Parts, core.PartSummary{Count: 4000, Values: vs})
			sums[i].N += 4000
		}
	}
	phis := []float64{0.5, 0.9, 0.99}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if wr, err := answer(sums, Scope{}, phis); err != nil || len(wr.Values) != len(phis) {
			t.Fatalf("answer = %+v, %v", wr, err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("answer allocates %d B over 100 runs × 2001 values", per)
	if per > 64<<10 {
		t.Fatalf("answer allocated %d B over 100 runs × 2001 values, want ≤ 64 KB: it is building O(δ) state", per)
	}
}

// TestExecGroupByWindows covers group partitioning, the per-(member,
// window) fetch fan-out, and the scope echo in each window result.
func TestExecGroupByWindows(t *testing.T) {
	src := &fakeSource{
		names: []string{"a.x", "a.y", "b.x"},
		fetch: func(name string, sc Scope) (*core.ShardSummary, error) {
			if sc.Back > 0 {
				// Data ran out behind the newest window.
				return &core.ShardSummary{Eps1: tEps1}, nil
			}
			return synthSummary(int64(len(name)), 1, 1), nil
		},
	}
	plan := &Plan{
		Match:   "**",
		GroupBy: 1,
		Window:  &WindowSpec{Steps: 2, Slide: 1, Count: 3},
		Phis:    []float64{0.5},
	}
	res, err := Exec(src, plan)
	if err != nil {
		t.Fatal(err)
	}
	if src.calls != 3*3 {
		t.Fatalf("fetches = %d, want one per (member, window) = 9", src.calls)
	}
	if len(res.Groups) != 2 || res.Groups[0].Key != "a" || res.Groups[1].Key != "b" {
		t.Fatalf("group keys = %+v, want [a b]", res.Groups)
	}
	if !reflect.DeepEqual(res.Groups[0].Streams, []string{"a.x", "a.y"}) ||
		!reflect.DeepEqual(res.Groups[1].Streams, []string{"b.x"}) {
		t.Fatalf("group members wrong: %+v", res.Groups)
	}
	for _, g := range res.Groups {
		if len(g.Windows) != 3 {
			t.Fatalf("group %q has %d windows, want 3", g.Key, len(g.Windows))
		}
		for i, wr := range g.Windows {
			if wr.Steps != 2 || wr.Back != i {
				t.Fatalf("group %q window %d scope = (steps %d, back %d)", g.Key, i, wr.Steps, wr.Back)
			}
			if i == 0 && (wr.N == 0 || len(wr.Values) != 1) {
				t.Fatalf("group %q newest window empty: %+v", g.Key, wr)
			}
			// Empty scopes report N == 0 with no values — not an error.
			if i > 0 && (wr.N != 0 || wr.Values != nil) {
				t.Fatalf("group %q window %d should be empty: %+v", g.Key, i, wr)
			}
		}
	}
}

// TestExecErrors pins error propagation: fetch failures name the stream
// and unwrap; group-key misfits fail the whole evaluation.
func TestExecErrors(t *testing.T) {
	sentinel := errors.New("backing store exploded")
	src := &fakeSource{
		names: []string{"a.x", "bad"},
		fetch: func(name string, sc Scope) (*core.ShardSummary, error) {
			if name == "bad" {
				return nil, sentinel
			}
			return synthSummary(1, 1, 0), nil
		},
	}
	_, err := Exec(src, &Plan{Match: "**", Phis: []float64{0.5}})
	if !errors.Is(err, sentinel) {
		t.Fatalf("fetch failure not unwrapped: %v", err)
	}
	if !strings.Contains(err.Error(), `stream "bad"`) {
		t.Fatalf("fetch failure does not name the stream: %v", err)
	}

	// GroupBy segment beyond a member's name is an evaluation error.
	src2 := &fakeSource{
		names: []string{"a.x", "solo"},
		fetch: func(name string, sc Scope) (*core.ShardSummary, error) {
			return synthSummary(1, 1, 0), nil
		},
	}
	if _, err := Exec(src2, &Plan{Match: "**", GroupBy: 2, Phis: []float64{0.5}}); err == nil {
		t.Fatal("group_by out of range accepted")
	}

	// Exec re-validates, so a hand-built invalid plan cannot slip through.
	if _, err := Exec(src2, &Plan{Phis: []float64{0.5}}); err == nil {
		t.Fatal("memberless plan accepted")
	}
}

// TestExecNilSummaryIsEmpty mirrors the cluster source: a nil summary is
// an empty contribution, not an error.
func TestExecNilSummaryIsEmpty(t *testing.T) {
	full := synthSummary(9, 2, 1)
	src := &fakeSource{
		names: []string{"gone", "here"},
		fetch: func(name string, sc Scope) (*core.ShardSummary, error) {
			if name == "gone" {
				return nil, nil
			}
			return full, nil
		},
	}
	res, err := Exec(src, &Plan{Match: "**", Phis: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Groups[0].Windows[0].N; got != full.N {
		t.Fatalf("N = %d, want %d (nil member contributes nothing)", got, full.N)
	}
}

// TestExecBoundsInFlightFetches: however many (member, window) pairs a plan
// has and however long each fetch blocks, at most maxInFlightFetches
// ScopedSummary calls are in flight at once — one goroutine per pair would
// start them all.
func TestExecBoundsInFlightFetches(t *testing.T) {
	const members, windows = 200, 8
	names := make([]string, members)
	for i := range names {
		names[i] = fmt.Sprintf("s%03d", i)
	}
	var (
		mu             sync.Mutex
		inFlight, peak int
	)
	release := make(chan struct{})
	src := &fakeSource{names: names, fetch: func(name string, sc Scope) (*core.ShardSummary, error) {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		<-release
		mu.Lock()
		inFlight--
		mu.Unlock()
		return synthSummary(int64(len(name)), 1, 0), nil
	}}
	done := make(chan error, 1)
	go func() {
		_, err := Exec(src, &Plan{Match: "*", Window: &WindowSpec{Steps: 1, Count: windows}, Phis: []float64{0.5}})
		done <- err
	}()
	// Wait for the first wave to block, then give any fetch past the bound
	// time to arrive before letting them all finish.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := inFlight
		mu.Unlock()
		if n >= maxInFlightFetches || time.Now().After(deadline) {
			break
		}
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if src.calls != members*windows {
		t.Fatalf("fetches = %d, want one per (member, window) = %d", src.calls, members*windows)
	}
	if peak != maxInFlightFetches {
		t.Fatalf("%d ScopedSummary calls were in flight at once, want the bound %d", peak, maxInFlightFetches)
	}
}
