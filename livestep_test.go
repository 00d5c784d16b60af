package hsq

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/oracle"
)

// TestLiveSnapshotSortsTail holds the live step to its model, the multiset
// of the values observed since the last cut, through seeded random
// interleavings of ObserveSlice, accurate, quick and rank-of-value queries,
// Status and EndStep. The observed slices land below, inside and above the
// values already held, and some repeat a few values many times. After each
// query the engine holds the live step as one sorted run and no tail, and a
// repeat snapshot sorts and copies nothing — it allocates no byte per value
// — and carries the live step whole, the sorted multiset with its minimum
// twice. Every accurate answer is within ε·m of internal/oracle, m the live
// step's size, and every accurate rank-of-value answer is exact; quick
// answers are within ε·N. The step each cut seals is the sorted multiset,
// read when its level-0 write starts. A snapshot held from a query to the
// next EndStep, across later observes, polls, the cut and the install,
// still holds the pieces it pinned and gives the same accurate answers.
func TestLiveSnapshotSortsTail(t *testing.T) {
	// Seeds 56 and on are the ones on which an accurate answer once missed
	// ε·N, the live step dominating the stream.
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 56, 70, 97, 105, 119, 140, 267, 281} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runLiveSnapshot(t, seed) })
	}
}

func runLiveSnapshot(t *testing.T, seed int64) {
	const eps = 0.05
	st := OneStream(t, Options{Epsilon: eps, Kappa: 2, Backend: "mem", BlockSize: 512})
	st.Status() // hydrates
	e := engineOf(t, st)
	var sealed []int64 // the sealed step, as its level-0 write finds it
	st.db.dev.SetFault(func(op disk.Op, name string, _ int64) error {
		if sb := e.store.Sealed(); op == disk.OpSeqWrite && partFile(name) && sb != nil && sealed == nil {
			sealed = slices.Clone(sb.Data())
		}
		return nil
	})
	rng := rand.New(rand.NewSource(seed))
	all := oracle.New(0)
	var live []int64
	var hi int64 // above every value observed so far
	draw := func() []int64 {
		vs := make([]int64, 1+rng.Intn([]int{8, 300, 3000}[rng.Intn(3)]))
		shape := rng.Intn(4)
		for i := range vs {
			switch shape {
			case 0: // repeats
				vs[i] = int64(rng.Intn(6)) << 20
			case 1: // above everything held
				vs[i] = hi + 1 + rng.Int63n(1<<20)
			case 2: // below everything held
				vs[i] = -1<<40 - rng.Int63n(1<<20)
			default:
				vs[i] = rng.Int63n(1<<40) - 1<<39
			}
		}
		hi = max(hi, slices.Max(vs))
		return vs
	}
	// held is a snapshot kept from a query to the next EndStep's install,
	// with copies of its pieces and its accurate answers when taken.
	var held *querySnap
	var heldPieces [][]int64
	var heldAnswer []int64
	answerOn := func(s *querySnap) []int64 {
		t.Helper()
		rs := []int64{1, (s.n + 1) / 2, s.n}
		vals, _, err := core.AccurateMultiQueryOpts(core.BuildPieces(s.sums, s.pieces, e.eps1, 0), eps, rs,
			core.QueryOptions{PinBlocks: true, Memo: s.memo})
		if err != nil {
			t.Fatal(err)
		}
		ranks, _, err := core.RankOfValues(s.sums, s.pieces, []int64{-1 << 39, 0, 3 << 20}, true)
		if err != nil {
			t.Fatal(err)
		}
		return append(vals, ranks...)
	}
	defer func() {
		if held != nil {
			held.release()
		}
	}()
	within := func(what string, err int64, bound float64) {
		t.Helper()
		if float64(err) > bound {
			t.Fatalf("seed %d: %s: rank error %d > %g", seed, what, err, bound)
		}
	}
	for op := 0; op < 250; op++ {
		n := all.Count()
		switch k := rng.Intn(8); {
		case k <= 2:
			vs := draw()
			st.ObserveSlice(vs)
			live = append(live, vs...)
			all.Add(vs...)
			continue
		case k == 3:
			if s := st.Status(); s.StreamCount != int64(len(live)) || s.HistCount+s.StreamCount != n {
				t.Fatalf("seed %d: Status m=%d n=%d, want m=%d N=%d", seed, s.StreamCount, s.HistCount, len(live), n)
			}
			continue
		case k == 4:
			sealed = nil
			if _, err := st.EndStep(); err != nil {
				t.Fatal(err)
			}
			if want := slices.Sorted(slices.Values(live)); !slices.Equal(sealed, want) {
				t.Fatalf("seed %d: the cut sealed %d values, not the %d live ones sorted", seed, len(sealed), len(want))
			}
			live = live[:0]
			if held == nil {
				continue
			}
			for i, p := range held.pieces {
				if !slices.Equal(p.SS, heldPieces[i]) {
					t.Fatalf("seed %d: piece %d of a held snapshot changed under a later fold, cut or install", seed, i)
				}
			}
			if got := answerOn(held); !slices.Equal(got, heldAnswer) {
				t.Fatalf("seed %d: a held snapshot answers %v after a cut and install, %v before", seed, got, heldAnswer)
			}
			held.release()
			held = nil
			continue
		case n == 0:
			continue
		case k <= 6:
			phis := []float64{rng.Float64(), 0.5, 1}
			ans, err := st.Query(context.Background(), Request{Phis: phis, Quick: k == 6})
			if err != nil {
				t.Fatal(err)
			}
			// Accurate: ε·m, the live step counted exactly; quick: ε·N.
			bound := eps * float64(len(live))
			if k == 6 {
				bound = eps * float64(n)
			}
			for i, phi := range phis {
				target := min(max(int64(math.Ceil(phi*float64(n))), 1), n)
				within(fmt.Sprintf("quick=%v φ=%g", k == 6, phi), all.SpanError(target, ans.Values[i]), bound)
			}
		default:
			vs := []int64{hi, rng.Int63n(1<<40) - 1<<39}
			if len(live) > 0 {
				vs[0] = live[rng.Intn(len(live))]
			}
			quick := rng.Intn(2) == 0
			ans, err := st.Query(context.Background(), Request{Values: vs, Quick: quick})
			if err != nil {
				t.Fatal(err)
			}
			bound := 0.0 // accurate: exact
			if quick {
				bound = eps * float64(n)
			}
			for i, v := range vs {
				within(fmt.Sprintf("quick=%v rank(%d)", quick, v), abs(ans.Values[i]-all.Rank(v)), bound)
			}
		}
		// The query snapshotted: the run is the sorted multiset, and a repeat
		// snapshot finds nothing to fold.
		want := slices.Sorted(slices.Values(live))
		if len(e.tail) != 0 || e.run.M != int64(len(live)) || len(live) > 0 && !slices.Equal(e.run.SS[1:], want) {
			t.Fatalf("seed %d: after a snapshot the run holds %d values and the tail %d; want the %d live ones sorted in the run",
				seed, e.run.M, len(e.tail), len(want))
		}
		if len(live) == 0 {
			continue
		}
		// A repeat snapshot allocates the snapshot and its piece list; a
		// sort's scratch or a copy of the batch would be 8 bytes a value more.
		// The least of three reads keeps a runtime allocation out.
		whole := append([]int64{want[0]}, want...)
		alloc := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := e.snapshot()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			piece := s.pieces[len(s.pieces)-1]
			if held == nil {
				held, heldAnswer = s, answerOn(s)
				heldPieces = heldPieces[:0]
				for _, p := range s.pieces {
					heldPieces = append(heldPieces, slices.Clone(p.SS))
				}
			} else {
				s.release()
			}
			if piece.M != int64(len(live)) || !slices.Equal(piece.SS, whole) {
				t.Fatalf("seed %d: live piece of %d values is not the %d live ones whole", seed, piece.M, len(live))
			}
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(256); alloc > limit {
			t.Fatalf("seed %d: a repeat snapshot of %d live values allocated %d B, want ≤ %d (the snapshot alone)",
				seed, len(live), alloc, limit)
		}
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkLivePoll prices one poll's snapshot of the live step: the fold
// of the tail observed since the last poll into a new run — the tail's sort,
// then its merge with the run into a fresh buffer — and the pin. The live
// step holds m values, the last tail of them new: one value (uniform, and
// below every other), one 8 192-value ingest batch, or all of them (the
// first poll of a step).
func BenchmarkLivePoll(b *testing.B) {
	for _, m := range []int{20_000, 1 << 20} {
		for _, tail := range []struct {
			name string
			n    int
			low  bool
		}{{"1", 1, false}, {"1-below", 1, true}, {"8192", 8192, false}, {"all", m, false}} {
			b.Run(fmt.Sprintf("m=%d/tail=%s", m, tail.name), func(b *testing.B) {
				st := OneStream(b, Options{Epsilon: 0.01, Backend: "mem"})
				st.Status()
				e := engineOf(b, st)
				rng := rand.New(rand.NewSource(1))
				step := make([]int64, m)
				for i := range step {
					step[i] = rng.Int63n(1 << 30)
				}
				sorted := m - tail.n
				slices.Sort(step[:sorted])
				if tail.low {
					step[m-1] = -1
				}
				// Each poll starts from the same state: the run of the sorted
				// values, which a poll never writes, and the new ones in the
				// tail. The copy that restores the tail is timed out by hand:
				// StopTimer's memory read would cost more than a one-value poll.
				run := core.StreamPiece{}.Merge(step[:sorted])
				e.tail = make([]int64, 0, tail.n)
				var polls time.Duration
				for range b.N {
					e.run, e.tail = run, append(e.tail[:0], step[sorted:]...)
					t0 := time.Now()
					s, err := e.snapshot()
					polls += time.Since(t0)
					if err != nil {
						b.Fatal(err)
					}
					s.release()
				}
				b.ReportMetric(float64(polls.Nanoseconds())/float64(b.N), "ns/poll")
				b.ReportMetric(float64(polls.Nanoseconds())/float64(b.N*tail.n), "ns/new-value")
			})
		}
	}
}
