package hsq

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/enc"
	"repro/internal/partition"
	"repro/internal/query"
)

// coldFixture is a DB with one hydration slot and two streams taking turns
// in it: "s", whose sidecar the tests read and damage, and "other", whose
// only job is to push "s" out.
type coldFixture struct {
	t   *testing.T
	db  *DB
	rng *rand.Rand
}

func newColdFixture(t *testing.T, eps float64, steps int) *coldFixture {
	db, err := Open(Options{Epsilon: eps, Kappa: 2, Backend: "mem", BlockSize: 512, MaxHydratedStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() }) //nolint:errcheck
	f := &coldFixture{t: t, db: db, rng: rand.New(rand.NewSource(23))}
	f.step("s", steps)
	return f
}

// step hydrates the stream and seals n more steps of it.
func (f *coldFixture) step(name string, n int) {
	f.t.Helper()
	st, err := f.db.Stream(name)
	if err != nil {
		f.t.Fatal(err)
	}
	for ; n > 0; n-- {
		for i := 20 + f.rng.Intn(60); i > 0; i-- {
			st.Observe(f.rng.Int63n(1000))
		}
		if _, err := st.EndStep(); err != nil {
			f.t.Fatal(err)
		}
	}
}

// evict hydrates "s" and seals it cold again by giving "other" the one
// slot, so the summary a cold "s" held is gone and the next cold read sees
// the file; the eviction writes a fresh sidecar, which evict returns.
func (f *coldFixture) evict() []byte {
	f.t.Helper()
	f.step("s", 0)
	f.step("other", 1)
	if st, _ := f.db.Lookup("s"); st == nil || st.Hydrated() {
		f.t.Fatal("fixture: s is still hydrated")
	}
	raw, err := f.db.dev.ReadMeta(sidecarPath("s"))
	if err != nil {
		f.t.Fatalf("fixture: eviction left no sidecar: %v", err)
	}
	return raw
}

// answer renders one scoped read as comparable text.
func (f *coldFixture) answer(sc query.Scope) string {
	sum, err := f.db.ScopedSummary("s", sc)
	if err != nil {
		return "error: " + err.Error()
	}
	return string(sum.AppendBinary(nil))
}

// TestSidecarIsTheWireEncoding: SUMMARY.bin is not a format of its own — an
// eviction and a checkpoint both leave the bytes Stream.Summary would have
// sent a peer while the stream was still hydrated.
func TestSidecarIsTheWireEncoding(t *testing.T) {
	f := newColdFixture(t, 0.1, 5)
	st, err := f.db.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := st.Summary()
	if err != nil {
		t.Fatal(err)
	}
	wire := sum.AppendBinary(nil)
	if len(sum.Parts) < 2 || len(sum.Pieces) != 0 {
		t.Fatalf("fixture: %d parts, %d pieces", len(sum.Parts), len(sum.Pieces))
	}
	if err := f.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if disk, err := f.db.dev.ReadMeta(sidecarPath("s")); err != nil || !bytes.Equal(disk, wire) {
		t.Fatalf("after a checkpoint SUMMARY.bin is %x (%v), the wire encoding %x", disk, err, wire)
	}
	f.db.dropSidecar("s")
	if disk := f.evict(); !bytes.Equal(disk, wire) {
		t.Fatalf("after an eviction SUMMARY.bin is %x, the wire encoding %x", disk, wire)
	}
	// With an open step the state is more than installed partitions: a
	// checkpoint removes the file instead of writing pieces into it.
	st.Observe(1)
	if err := f.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if f.db.dev.Exists(sidecarPath("s")) {
		t.Fatal("a checkpoint over a live buffer left a sidecar")
	}
}

// v1Sidecar is parts in the SUMMARY.bin layout builds before format 2 wrote:
// the file's own version byte, steps and total, no ε.
func v1Sidecar(parts []core.PartSummary) []byte {
	var steps int
	var total int64
	for _, p := range parts {
		steps, total = p.EndStep, total+p.Count
	}
	buf := []byte{1}
	buf = binary.AppendUvarint(buf, uint64(steps))
	buf = binary.AppendUvarint(buf, uint64(total))
	buf = binary.AppendUvarint(buf, uint64(len(parts)))
	for _, p := range parts {
		buf = binary.AppendUvarint(buf, uint64(p.Count))
		buf = binary.AppendUvarint(buf, uint64(p.StartStep))
		buf = binary.AppendUvarint(buf, uint64(p.EndStep))
		buf = binary.AppendUvarint(buf, uint64(len(p.Values)))
		buf = enc.AppendDelta(buf, p.Values)
	}
	return buf
}

// TestColdSummaryFallsBack: a SUMMARY.bin that is not exactly the evicted
// stream's durable state — stale, reshaped, cut short, padded, inconsistent,
// unsorted, another build's, another ε's, another capture rule's or gone —
// never answers. The read hydrates once, is counted as a fallback, and
// returns what the hydrated engine returns; the next eviction rewrites the
// file and the same reads hydrate nothing.
func TestColdSummaryFallsBack(t *testing.T) {
	// edited decodes a fresh sidecar, applies edit and encodes it again.
	edited := func(edit func(*testing.T, *core.ShardSummary)) func(*coldFixture, []byte) [][]byte {
		return func(f *coldFixture, fresh []byte) [][]byte {
			sum, err := core.DecodeShardSummary(fresh)
			if err != nil {
				f.t.Fatal(err)
			}
			edit(f.t, sum)
			return [][]byte{sum.AppendBinary(nil)}
		}
	}
	// oldRule re-captures every part of a fresh sidecar as builds before
	// summary version 4 did — ⌈1/ε₁⌉+1 entries at ⌊i·ε₁·η⌋ − 1, clamped,
	// whatever the part's count — and stamps the bytes with version.
	oldRule := func(version byte) func(*coldFixture, []byte) [][]byte {
		return func(f *coldFixture, fresh []byte) [][]byte {
			sum, err := core.DecodeShardSummary(fresh)
			if err != nil {
				f.t.Fatal(err)
			}
			short := 0
			for i, p := range sum.Parts {
				if float64(p.Count)*sum.Eps1 >= 1 {
					continue // both rules take the same entries
				}
				run, old := p.Values[1:], make([]int64, partition.Beta(math.MaxInt64, sum.Eps1))
				for j := range old {
					old[j] = run[min(max(int64(float64(j)*sum.Eps1*float64(p.Count))-1, 0), p.Count-1)]
				}
				sum.Parts[i].Values = old
				short++
			}
			if short == 0 {
				f.t.Fatal("fixture: no part shorter than 1/ε₁")
			}
			raw := sum.AppendBinary(nil)
			raw[0] = version
			return [][]byte{raw}
		}
	}
	for _, tc := range []struct {
		name string
		eps  float64 // the DB's ε: at 0.01 every step is shorter than 1/ε₁
		// damage returns the bytes to put in place of the fresh sidecar it
		// is given, each its own trial; a nil entry removes the file.
		damage func(f *coldFixture, fresh []byte) [][]byte
	}{
		{"stale steps", 0.1, func(f *coldFixture, fresh []byte) [][]byte {
			f.step("s", 2)
			return [][]byte{fresh}
		}},
		{"layout from before a merge", 0.1, edited(func(t *testing.T, sum *core.ShardSummary) {
			// Same steps, same total: the first multi-step partition as the
			// two it was merged from.
			i := slices.IndexFunc(sum.Parts, func(p core.PartSummary) bool { return p.EndStep > p.StartStep })
			if i < 0 {
				t.Fatal("fixture: no merged partition")
			}
			// Each half holds the capture rule's count of entries, so only
			// the manifest cross-check can tell.
			p := sum.Parts[i]
			half := func(count int64) []int64 {
				vs := make([]int64, partition.Beta(count, sum.Eps1))
				for j := range vs {
					vs[j] = p.Values[j*len(p.Values)/len(vs)]
				}
				return vs
			}
			sum.Parts = slices.Replace(sum.Parts, i, i+1,
				core.PartSummary{Count: p.Count / 2, StartStep: p.StartStep, EndStep: p.StartStep, Values: half(p.Count / 2)},
				core.PartSummary{Count: p.Count - p.Count/2, StartStep: p.StartStep + 1, EndStep: p.EndStep, Values: half(p.Count - p.Count/2)})
		})},
		{"truncated", 0.1, func(_ *coldFixture, fresh []byte) (cuts [][]byte) {
			for n := 1; n < len(fresh); n++ { // a nil entry would mean "missing"
				cuts = append(cuts, fresh[:n])
			}
			return append(cuts, []byte{})
		}},
		{"trailing byte", 0.1, func(_ *coldFixture, fresh []byte) [][]byte {
			return [][]byte{append(slices.Clone(fresh), 0)}
		}},
		{"N off by one", 0.1, edited(func(t *testing.T, sum *core.ShardSummary) { sum.N++ })},
		{"first run reversed", 0.1, edited(func(t *testing.T, sum *core.ShardSummary) {
			vs := slices.Clone(sum.Parts[0].Values)
			slices.Reverse(vs)
			if slices.IsSorted(vs) {
				t.Fatal("fixture: first run is constant")
			}
			sum.Parts[0].Values = vs
		})},
		{"version 1", 0.1, func(f *coldFixture, fresh []byte) [][]byte {
			sum, err := core.DecodeShardSummary(fresh)
			if err != nil {
				f.t.Fatal(err)
			}
			return [][]byte{v1Sidecar(sum.Parts)}
		}},
		{"another epsilon", 0.1, edited(func(t *testing.T, sum *core.ShardSummary) { sum.Eps1, sum.Eps2 = sum.Eps1/2, sum.Eps2/2 })},
		{"stream-side piece", 0.1, edited(func(t *testing.T, sum *core.ShardSummary) {
			sum.Pieces, sum.N = []core.StreamPiece{{M: 1, SS: []int64{7, 7}}}, sum.N+1
		})},
		{"missing", 0.1, func(*coldFixture, []byte) [][]byte { return [][]byte{nil} }},
		{"version 3, the old capture rule", 0.01, oldRule(3)},
		{"the old capture rule", 0.01, oldRule(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newColdFixture(t, tc.eps, 5)
			trials := tc.damage(f, f.evict())
			// What the hydrated engine answers: the whole history, the newest
			// partition as a window, the oldest as an as-of read.
			f.step("s", 0)
			full, err := f.db.ScopedSummary("s", query.Scope{})
			if err != nil || len(full.Parts) < 2 {
				t.Fatalf("fixture: %+v, %v", full, err)
			}
			newest := full.Parts[len(full.Parts)-1]
			scopes := []query.Scope{{}, {Window: newest.EndStep - newest.StartStep + 1}, {AsOf: full.Parts[0].EndStep}}
			want := make([]string, len(scopes))
			for i, sc := range scopes {
				want[i] = f.answer(sc)
			}
			// read answers every scope and reports how far the directory moved.
			read := func(when string) (hydrations, fallbacks uint64) {
				before := f.db.DirectoryStats()
				for i, sc := range scopes {
					if got := f.answer(sc); got != want[i] {
						t.Fatalf("%s, scope %+v:\n got %q\nwant %q", when, sc, got, want[i])
					}
				}
				after := f.db.DirectoryStats()
				return after.Hydrations - before.Hydrations, after.SummaryFallbacks - before.SummaryFallbacks
			}
			for i, bad := range trials {
				fresh := f.evict()
				if bad == nil {
					f.db.dropSidecar("s")
				} else if err := f.db.dev.WriteMeta(sidecarPath("s"), bad); err != nil {
					t.Fatal(err)
				} else if bytes.Equal(bad, fresh) {
					t.Fatalf("trial %d: the damaged sidecar is the fresh one", i)
				}
				if h, fb := read("over the damaged sidecar"); h != 1 || fb != 1 {
					t.Fatalf("trial %d (%d bytes): %d hydrations, %d fallbacks, want one of each", i, len(bad), h, fb)
				}
				if rewritten := f.evict(); !bytes.Equal(rewritten, fresh) {
					t.Fatalf("trial %d: the next eviction wrote %x, want %x", i, rewritten, fresh)
				}
				if h, fb := read("over the rewritten sidecar"); h != 0 || fb != 0 {
					t.Fatalf("trial %d: %d hydrations, %d fallbacks over a fresh sidecar", i, h, fb)
				}
			}
		})
	}

	// A file damaged while the stream holds its summary is not read: the
	// held summary answers until a hydrate→evict cycle forgets it and the
	// eviction rewrites the file.
	t.Run("damaged while held", func(t *testing.T) {
		f := newColdFixture(t, 0.1, 5)
		fresh := f.evict()
		want := f.answer(query.Scope{}) // decodes and holds
		if err := f.db.dev.WriteMeta(sidecarPath("s"), fresh[:1]); err != nil {
			t.Fatal(err)
		}
		before := f.db.DirectoryStats()
		if got := f.answer(query.Scope{}); got != want {
			t.Fatalf("held read over a damaged file:\n got %q\nwant %q", got, want)
		}
		if after := f.db.DirectoryStats(); after != before {
			t.Fatalf("a held read moved the directory: %+v → %+v", before, after)
		}
		if rewritten := f.evict(); !bytes.Equal(rewritten, fresh) {
			t.Fatalf("the next eviction wrote %x, want %x", rewritten, fresh)
		}
		before = f.db.DirectoryStats()
		if got := f.answer(query.Scope{}); got != want {
			t.Fatalf("read after the cycle:\n got %q\nwant %q", got, want)
		}
		if after := f.db.DirectoryStats(); after.SidecarDecodes != before.SidecarDecodes+1 || after.SummaryFallbacks != before.SummaryFallbacks {
			t.Fatalf("read after the cycle: %+v → %+v, want one decode and no fallback", before, after)
		}
	})
}

// TestColdSummaryHeldUntilHydration: the first read of a cold stream decodes
// its sidecar and holds the summary; later reads use it — no decode, a
// constant number of allocations whatever the summary's size — until a
// write hydrates the stream, after which the next cold read decodes the new
// state. Past the budget nothing is held and every read decodes, answering
// the same bytes.
func TestColdSummaryHeldUntilHydration(t *testing.T) {
	scopes := []query.Scope{{}, {Window: 1}, {AsOf: 1}}
	var allocs []float64
	for _, steps := range []int{4, 40} {
		f := newColdFixture(t, 0.1, steps)
		f.evict()
		first := f.db.DirectoryStats()
		want := make([]string, len(scopes))
		for i, sc := range scopes {
			want[i] = f.answer(sc)
		}
		held := f.db.DirectoryStats()
		if held.SidecarDecodes != first.SidecarDecodes+1 || held.ColdSummaryBytes <= 0 {
			t.Fatalf("%d steps: first cold reads %+v → %+v, want one decode and a held summary", steps, first, held)
		}
		for i, sc := range scopes {
			if got := f.answer(sc); got != want[i] {
				t.Fatalf("%d steps, scope %+v: held read\n got %q\nwant %q", steps, sc, got, want[i])
			}
		}
		allocs = append(allocs, testing.AllocsPerRun(100, func() { f.db.ScopedSummary("s", query.Scope{Window: 1}) })) //nolint:errcheck
		if ds := f.db.DirectoryStats(); ds != held {
			t.Fatalf("%d steps: held reads moved the directory: %+v → %+v", steps, held, ds)
		}

		// Over the budget: the same bytes, a decode per read, nothing held.
		f.evict()
		f.db.coldBudget = held.ColdSummaryBytes - 1
		for i, sc := range scopes {
			if got := f.answer(sc); got != want[i] {
				t.Fatalf("%d steps, scope %+v: over-budget read\n got %q\nwant %q", steps, sc, got, want[i])
			}
		}
		if ds := f.db.DirectoryStats(); ds.SidecarDecodes != held.SidecarDecodes+uint64(len(scopes)) || ds.ColdSummaryBytes != 0 || ds.SummaryFallbacks != 0 {
			t.Fatalf("%d steps: over-budget reads %+v → %+v, want a decode each and nothing held", steps, held, ds)
		}
		f.db.coldBudget = coldSummaryBudget

		// A write hydrates: the held summary goes, and the next cold read
		// decodes the state the eviction sealed.
		f.answer(query.Scope{})
		f.step("s", 1)
		if ds := f.db.DirectoryStats(); ds.ColdSummaryBytes != 0 {
			t.Fatalf("%d steps: %d bytes still held after a hydration", steps, ds.ColdSummaryBytes)
		}
		hot, err := f.db.ScopedSummary("s", query.Scope{})
		if err != nil {
			t.Fatal(err)
		}
		f.evict()
		before := f.db.DirectoryStats()
		cold, err := f.db.ScopedSummary("s", query.Scope{})
		if err != nil || cold.N != hot.N || cold.N == 0 {
			t.Fatalf("%d steps: cold read after EndStep: %+v, %v; want N=%d", steps, cold, err, hot.N)
		}
		if ds := f.db.DirectoryStats(); ds.SidecarDecodes != before.SidecarDecodes+1 || ds.Hydrations != before.Hydrations {
			t.Fatalf("%d steps: cold read after EndStep %+v → %+v, want one decode, no hydration", steps, before, ds)
		}
	}
	if allocs[0] != allocs[1] || allocs[0] > 2 {
		t.Fatalf("a held read allocates %v times (4 steps) and %v (40 steps), want the same ≤ 2", allocs[0], allocs[1])
	}
}

// TestHeldColdSummaryNotStale drives the store race directly: a cold read
// validates the sidecar, then — before it stores what it read — the stream
// hydrates, seals another step and is evicted again. The store must not
// happen, or every later read would answer the old history. Then it lets
// concurrent readers race the same cycle.
func TestHeldColdSummaryNotStale(t *testing.T) {
	f := newColdFixture(t, 0.1, 5)
	f.evict()
	st, _ := f.db.Lookup("s")
	f.db.mu.Lock()
	epoch := st.coldEpoch
	f.db.mu.Unlock()
	old := f.db.readSidecar("s")
	if old == nil {
		t.Fatal("fixture: the fresh sidecar did not validate")
	}

	f.step("s", 1)
	hot, err := f.db.ScopedSummary("s", query.Scope{})
	if err != nil {
		t.Fatal(err)
	}
	f.evict()
	f.db.holdColdSummary(st, old, epoch) // the first read's store, late

	cold, err := f.db.ScopedSummary("s", query.Scope{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.N != hot.N || len(cold.Parts) != len(hot.Parts) {
		t.Fatalf("cold read after the raced store: N=%d over %d parts, want N=%d over %d (the stale read had N=%d)",
			cold.N, len(cold.Parts), hot.N, len(hot.Parts), old.N)
	}

	// The same race left to the scheduler: readers decode, hold and reuse
	// s's summary while this goroutine cycles s through hydrate, EndStep and
	// evict. No read may answer fewer values than were confirmed before it
	// began, and once the writer stops the next read answers all of them.
	var confirmed atomic.Int64
	confirmed.Store(hot.N)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := confirmed.Load()
				if sum, err := f.db.ScopedSummary("s", query.Scope{}); err != nil || sum.N < floor {
					t.Errorf("concurrent read: %+v, %v; want N ≥ %d", sum, err, floor)
					return
				}
			}
		}()
	}
	other, _ := f.db.Lookup("other")
	for i := 0; i < 40; i++ {
		st.ObserveSlice([]int64{int64(i), 7, 500})
		if _, err := st.EndStep(); err != nil {
			t.Fatal(err)
		}
		confirmed.Add(3)
		other.Observe(1)
		if _, err := other.EndStep(); err != nil { // takes the slot: s is evicted
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	if sum, err := f.db.ScopedSummary("s", query.Scope{}); err != nil || sum.N != confirmed.Load() {
		t.Fatalf("read after the churn: %+v, %v; want N = %d", sum, err, confirmed.Load())
	}
}
