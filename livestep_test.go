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
// query the engine holds its batch sorted whole, and a repeat snapshot sorts
// nothing, allocates only what the summary needs, and carries the live
// piece SortedSummary gives for the sorted multiset. Every answer is within
// ε·N of internal/oracle. The step each cut seals is the sorted multiset,
// read when its level-0 write starts.
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
	within := func(what string, err, n int64) {
		t.Helper()
		if bound := eps * float64(n); float64(err) > bound {
			t.Fatalf("seed %d: %s: rank error %d > ε·N = %g", seed, what, err, bound)
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
			continue
		case n == 0:
			continue
		case k <= 6:
			phis := []float64{rng.Float64(), 0.5, 1}
			ans, err := st.Query(context.Background(), Request{Phis: phis, Quick: k == 6})
			if err != nil {
				t.Fatal(err)
			}
			for i, phi := range phis {
				target := min(max(int64(math.Ceil(phi*float64(n))), 1), n)
				within(fmt.Sprintf("quick=%v φ=%g", k == 6, phi), all.SpanError(target, ans.Values[i]), n)
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
			for i, v := range vs {
				within(fmt.Sprintf("quick=%v rank(%d)", quick, v), abs(ans.Values[i]-all.Rank(v)), n)
			}
		}
		// The query snapshotted: the batch is the sorted multiset, and a
		// repeat snapshot finds nothing to sort.
		want := slices.Sorted(slices.Values(live))
		if !slices.Equal(e.batch, want) || e.sortedLen != len(e.batch) {
			t.Fatalf("seed %d: after a snapshot the batch holds %d values, %d sorted; want the %d live ones sorted",
				seed, len(e.batch), e.sortedLen, len(want))
		}
		if len(live) == 0 {
			continue
		}
		// A repeat snapshot allocates the summary, the snapshot and its piece
		// list; a sort's scratch or a copy of the batch would be 8 bytes a value
		// more. The least of three reads keeps a runtime allocation out.
		ss := core.SortedSummary(want, e.eps2)
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
			s.release()
			if piece.M != int64(len(live)) || !slices.Equal(piece.SS, ss) {
				t.Fatalf("seed %d: live piece of %d values differs from SortedSummary of the %d live ones", seed, piece.M, len(live))
			}
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(8*len(ss) + 256); alloc > limit {
			t.Fatalf("seed %d: a repeat snapshot of %d live values allocated %d B, want ≤ %d (the summary's %d and the snapshot)",
				seed, len(live), alloc, limit, 8*len(ss))
		}
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkLivePoll prices one poll's snapshot of the live step: sorting
// the tail observed since the last poll into the sorted prefix, then the
// live summary. The live step holds m values, the last tail of them new:
// one value (uniform, and below every other: the merge's O(m) worst case),
// one 8 192-value ingest batch, or all of them (the first poll of a step).
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
				// Each poll starts from the same state. The copy that restores it
				// is timed out by hand: StopTimer's memory read would cost more
				// than a one-value poll.
				e.batch = make([]int64, m)
				var polls time.Duration
				for range b.N {
					copy(e.batch, step)
					e.sortedLen = sorted
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
