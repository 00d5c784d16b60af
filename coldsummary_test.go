package hsq

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/enc"
	"repro/internal/oracle"
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
	or  *oracle.Oracle // what "s" observed
}

func newColdFixture(t *testing.T, eps float64, steps int) *coldFixture {
	return newColdFixtureOn(t, disk.NewMemBackend(), eps, steps)
}

// newColdFixtureOn is newColdFixture on the given backend.
func newColdFixtureOn(t *testing.T, backend disk.Backend, eps float64, steps int) *coldFixture {
	db, err := Open(Options{Epsilon: eps, Kappa: 2, Device: backend, BlockSize: 512, MaxHydratedStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() }) //nolint:errcheck
	f := &coldFixture{t: t, db: db, rng: rand.New(rand.NewSource(23)), or: oracle.New(0)}
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
			v := f.rng.Int63n(1000)
			st.Observe(v)
			if name == "s" {
				f.or.Add(v)
			}
		}
		if _, err := st.EndStep(); err != nil {
			f.t.Fatal(err)
		}
	}
}

// evict hydrates "s" and seals it cold again by giving "other" the one
// slot, so "s" holds the summary its eviction built, then passes the
// barrier (DB.Checkpoint), which writes that summary as a fresh sidecar;
// evict returns the file.
func (f *coldFixture) evict() []byte {
	f.t.Helper()
	f.step("s", 0)
	f.step("other", 1)
	if st, _ := f.db.Lookup("s"); st == nil || st.Hydrated() {
		f.t.Fatal("fixture: s is still hydrated")
	}
	if err := f.db.Checkpoint(); err != nil {
		f.t.Fatal(err)
	}
	raw, err := f.db.dev.ReadMeta(sidecarPath("s"))
	if err != nil {
		f.t.Fatalf("fixture: eviction left no sidecar: %v", err)
	}
	return raw
}

// forget drops the summary a cold "s" holds, as a restart would, so the
// next cold read reads the file.
func (f *coldFixture) forget() {
	st, _ := f.db.Lookup("s")
	f.db.mu.Lock()
	defer f.db.mu.Unlock()
	f.db.forgetColdLocked(st)
}

// answer renders one scoped read as comparable text.
func (f *coldFixture) answer(sc query.Scope) string {
	sum, err := f.db.ScopedSummary("s", sc)
	if err != nil {
		return "error: " + err.Error()
	}
	return string(sum.AppendBinary(nil))
}

// TestSidecarIsTheWireEncoding: SUMMARY.bin is not a format of its own — a
// checkpoint of the hydrated stream, and the barrier after an eviction, both
// leave the bytes Stream.Summary would have sent a peer while the stream was
// still hydrated; a checkpoint over an open step leaves the same bytes.
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
	if err := f.db.dev.Remove(sidecarPath("s")); err != nil {
		t.Fatal(err)
	}
	if disk := f.evict(); !bytes.Equal(disk, wire) {
		t.Fatalf("after an eviction and a checkpoint SUMMARY.bin is %x, the wire encoding %x", disk, wire)
	}
	// An open step is not durable state: a checkpoint over it writes the
	// installed partitions' summary, the bytes of the state the commit made
	// durable, and never pieces.
	st.Observe(1)
	if err := f.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if disk, err := f.db.dev.ReadMeta(sidecarPath("s")); err != nil || !bytes.Equal(disk, wire) {
		t.Fatalf("after a checkpoint over a live buffer SUMMARY.bin is %x (%v), the wire encoding of the partitions %x", disk, err, wire)
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
// unsorted, another build's (one with two ε values among them), another
// ε's, another capture rule's or gone —
// never answers. The read (the summary the eviction held forgotten, as
// after a restart) hydrates once, is counted as a fallback, and returns
// what the hydrated engine returns; the next eviction's barrier rewrites the
// file and the same reads from it hydrate nothing.
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
	// whatever the part's count — and stamps the bytes with version, unless
	// it is 0: then they keep this encoding's, their checksum matching.
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
			if version != 0 {
				raw[0] = version
			}
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
		{"another epsilon", 0.1, edited(func(t *testing.T, sum *core.ShardSummary) { sum.Eps1 /= 2 })},
		{"version 4, two ε values", 0.1, func(_ *coldFixture, fresh []byte) [][]byte {
			// What the build before this encoding wrote for the same state:
			// the pieces' ε, ε/4, after ε₁.
			v4 := append([]byte{4}, fresh[1:9]...)
			v4 = binary.BigEndian.AppendUint64(v4, math.Float64bits(0.1/4))
			return [][]byte{append(v4, fresh[9:]...)}
		}},
		{"stream-side piece", 0.1, edited(func(t *testing.T, sum *core.ShardSummary) {
			sum.Pieces, sum.N = []core.StreamPiece{{M: 1, SS: []int64{7, 7}}}, sum.N+1
		})},
		{"missing", 0.1, func(*coldFixture, []byte) [][]byte { return [][]byte{nil} }},
		{"version 3, the old capture rule", 0.01, oldRule(3)},
		{"the old capture rule", 0.01, oldRule(0)},
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
				f.forget()
				if bad == nil {
					if err := f.db.dev.Remove(sidecarPath("s")); err != nil {
						t.Fatal(err)
					}
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
				f.forget()
				if h, fb := read("over the rewritten sidecar"); h != 0 || fb != 0 {
					t.Fatalf("trial %d: %d hydrations, %d fallbacks over a fresh sidecar", i, h, fb)
				}
			}
		})
	}

	// A file damaged while the stream holds its summary is not read: the
	// held summary answers until a hydrate→evict cycle forgets it and the
	// eviction's barrier rewrites the file.
	t.Run("damaged while held", func(t *testing.T) {
		f := newColdFixture(t, 0.1, 5)
		fresh := f.evict()
		f.forget()
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
		f.forget()
		before = f.db.DirectoryStats()
		if got := f.answer(query.Scope{}); got != want {
			t.Fatalf("read after the cycle:\n got %q\nwant %q", got, want)
		}
		if after := f.db.DirectoryStats(); after.SidecarDecodes != before.SidecarDecodes+1 || after.SummaryFallbacks != before.SummaryFallbacks {
			t.Fatalf("read after the cycle: %+v → %+v, want one decode and no fallback", before, after)
		}
	})
}

// TestColdSummaryHeldUntilHydration: the first read of a cold stream that
// holds no summary (forgotten, as after a restart) decodes its sidecar and
// holds the summary; later reads use it — no decode, a constant number of
// allocations whatever the summary's size — until a write hydrates the
// stream, after which the next cold read from the file decodes the new
// state. Past the budget nothing is held and every read decodes, answering
// the same bytes.
func TestColdSummaryHeldUntilHydration(t *testing.T) {
	scopes := []query.Scope{{}, {Window: 1}, {AsOf: 1}}
	var allocs []float64
	for _, steps := range []int{4, 40} {
		f := newColdFixture(t, 0.1, steps)
		f.evict()
		f.forget()
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
		f.forget()
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
		st, _ := f.db.Lookup("s")
		f.db.mu.Lock()
		stillHeld := st.cold != nil
		f.db.mu.Unlock()
		if stillHeld { // "other", evicted by the hydration, holds its own
			t.Fatalf("%d steps: s still holds a summary after a hydration", steps)
		}
		hot, err := f.db.ScopedSummary("s", query.Scope{})
		if err != nil {
			t.Fatal(err)
		}
		f.evict()
		f.forget()
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

// parkBackend parks the first ReadMeta of a SUMMARY.bin after armed is
// set, with the bytes it read, until release is closed: a cold read held up
// between its decode and its hold.
type parkBackend struct {
	disk.Backend
	armed   atomic.Bool
	parked  chan struct{} // closed when the read parks
	release chan struct{}
}

func (b *parkBackend) ReadMeta(name string) ([]byte, error) {
	data, err := b.Backend.ReadMeta(name)
	if strings.HasSuffix(name, "/"+sidecarName) && b.armed.CompareAndSwap(true, false) {
		close(b.parked)
		<-b.release
	}
	return data, err
}

// TestHeldColdSummaryNotStale drives the hold race directly: a cold read
// decodes the sidecar and parks before it holds what it read, while the
// stream is cycled through hydrate, EndStep and evict. The cycle must wait
// for the read, or the read would hold the old history over the eviction's
// new summary and every later read would answer it. Then it lets
// concurrent readers race the same cycle.
func TestHeldColdSummaryNotStale(t *testing.T) {
	backend := &parkBackend{Backend: disk.NewMemBackend(), parked: make(chan struct{}), release: make(chan struct{})}
	f := newColdFixtureOn(t, backend, 0.1, 5)
	f.evict()
	f.forget() // so the next cold read decodes the file
	st, _ := f.db.Lookup("s")
	oldN := f.or.Count()

	backend.armed.Store(true)
	read := make(chan *core.ShardSummary, 1)
	go func() {
		sum, err := f.db.ScopedSummary("s", query.Scope{})
		if err != nil {
			t.Error(err)
		}
		read <- sum
	}()
	<-backend.parked
	cycled := make(chan struct{})
	go func() {
		defer close(cycled)
		st.ObserveSlice([]int64{1, 2, 3}) // hydrates s
		if _, err := st.EndStep(); err != nil {
			t.Error(err)
			return
		}
		o, _ := f.db.Lookup("other")
		o.Observe(1) // takes the slot: s is evicted
		if _, err := o.EndStep(); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-cycled:
		t.Error("a hydrate → EndStep → evict cycle of the stream ran while a cold read of it was parked")
	case <-time.After(100 * time.Millisecond):
	}
	close(backend.release)
	if sum := <-read; sum == nil || sum.N != oldN {
		t.Fatalf("the parked read answered %+v, want the history it began over, N=%d", sum, oldN)
	}
	<-cycled
	if st.Hydrated() {
		t.Fatal("fixture: s is still hydrated")
	}
	var hot *core.ShardSummary
	for i := 0; i < 2; i++ {
		sum, err := f.db.ScopedSummary("s", query.Scope{})
		if err != nil || sum.N != oldN+3 {
			t.Fatalf("read %d after the cycle: %+v, %v; want N=%d", i, sum, err, oldN+3)
		}
		hot = sum
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

// partReadBackend counts the opens of partition files: a hydration that
// scans opens each partition it reads.
type partReadBackend struct {
	disk.Backend
	opens atomic.Int64
}

func (b *partReadBackend) Open(name string) (disk.ReadHandle, error) {
	if strings.Contains(name, "/part-") {
		b.opens.Add(1)
	}
	return b.Backend.Open(name)
}

// checkOracle holds st's accurate answers to the oracle — ranks exact, and
// quantiles exact to the rank span, the stream having no live step — and
// returns its accurate and quick answers as comparable text.
func checkOracle(t *testing.T, st *Stream, or *oracle.Oracle) string {
	t.Helper()
	phis := []float64{0.01, 0.25, 0.5, 0.9, 0.99}
	vs, _, err := st.Quantiles(phis)
	if err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprint(vs)
	for i, phi := range phis {
		target, err := core.RankTarget(phi, or.Count())
		if err != nil {
			t.Fatal(err)
		}
		if d := or.SpanError(target, vs[i]); d > 1 {
			t.Fatalf("quantile(%g) = %d is %d ranks off", phi, vs[i], d)
		}
		q, err := QuantileQuick(st, phi)
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := st.Rank(vs[i] + 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := or.Rank(vs[i] + 1); r != want {
			t.Fatalf("rank(%d) = %d, exact %d", vs[i]+1, r, want)
		}
		out += fmt.Sprintf(" %d/%d", q, r)
	}
	return out
}

// TestHydrationTakesEvictedSummary: a stream's eviction holds the summary
// it built, and its next hydration takes it: the load opens no partition,
// reads no block and scans no value, and the engine answers exactly what it
// answered before the eviction, which the oracle confirms.
func TestHydrationTakesEvictedSummary(t *testing.T) {
	backend := &partReadBackend{Backend: disk.NewMemBackend()}
	db, err := Open(Options{Epsilon: 0.05, Kappa: 2, Device: backend, BlockSize: 512, MaxHydratedStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	st, err := db.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	or := oracle.New(0)
	for step := 0; step < 9; step++ { // two merges: partitions of three shapes
		vs := make([]int64, 100+rng.Intn(200))
		for i := range vs {
			vs[i] = rng.Int63n(5000)
		}
		st.ObserveSlice(vs)
		or.Add(vs...)
		if _, err := st.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	want := checkOracle(t, st, or)
	hot, err := st.Summary()
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 2; cycle++ {
		if _, err := db.Stream("other"); err != nil { // takes the one slot
			t.Fatal(err)
		}
		if st.Hydrated() {
			t.Fatal("fixture: s is still hydrated")
		}
		opens, io, before := backend.opens.Load(), db.DiskStats(), db.DirectoryStats()
		if _, err := db.Stream("s"); err != nil { // hydrates, reads nothing
			t.Fatal(err)
		}
		after := db.DirectoryStats()
		if got := backend.opens.Load() - opens; got != 0 || db.DiskStats() != io {
			t.Fatalf("cycle %d: the hydration opened %d partition files, I/O %+v → %+v", cycle, got, io, db.DiskStats())
		}
		if after.Hydrations != before.Hydrations+1 || after.ScannedValues != before.ScannedValues ||
			after.HydratedValues != before.HydratedValues+uint64(or.Count()) {
			t.Fatalf("cycle %d: directory %+v → %+v, want one hydration of %d values, none scanned", cycle, before, after, or.Count())
		}
		if got, err := st.Summary(); err != nil || !bytes.Equal(got.AppendBinary(nil), hot.AppendBinary(nil)) {
			t.Fatalf("cycle %d: the hydrated engine's summary changed (%v)", cycle, err)
		}
		if got := checkOracle(t, st, or); got != want {
			t.Fatalf("cycle %d: answers after the hydration\n got %s\nwant %s", cycle, got, want)
		}
	}
}

// TestDecodedSummaryNeverFeedsHydration: a SUMMARY.bin damaged on disk
// feeds neither a read nor a hydration. Here one bit of the file is flipped
// where, with the checksum recomputed, the decoder and the manifest
// cross-check would both accept it — a value changed, its run still sorted.
// The checksum refuses it: the cold read falls back, counted, its
// hydration scans all of the history, and the engine's summary and answers
// are the undamaged ones.
func TestDecodedSummaryNeverFeedsHydration(t *testing.T) {
	f := newColdFixture(t, 0.1, 6)
	st, err := f.db.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	want := checkOracle(t, st, f.or)
	fresh := f.evict()
	f.forget()
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	body := len(fresh) - 4
	var damaged []byte
	for bit := 8; bit < 8*body && damaged == nil; bit++ { // past the version byte
		flipped := slices.Clone(fresh)
		flipped[bit/8] ^= 1 << (bit % 8)
		resealed := binary.BigEndian.AppendUint32(slices.Clone(flipped[:body]), crc32.Checksum(flipped[:body], castagnoli))
		if err := f.db.dev.WriteMeta(sidecarPath("s"), resealed); err != nil {
			t.Fatal(err)
		}
		if sum := f.db.readSidecar("s"); sum != nil && !bytes.Equal(sum.AppendBinary(nil), fresh) {
			damaged = flipped
		}
	}
	if damaged == nil {
		t.Fatal("fixture: no flip passes the structural checks")
	}
	if err := f.db.dev.WriteMeta(sidecarPath("s"), damaged); err != nil {
		t.Fatal(err)
	}
	before := f.db.DirectoryStats()
	if got := f.answer(query.Scope{}); got != string(fresh) {
		t.Fatalf("the cold read over the damaged file answered %x, want %x", got, fresh)
	}
	after := f.db.DirectoryStats()
	if after.SummaryFallbacks != before.SummaryFallbacks+1 || after.Hydrations != before.Hydrations+1 {
		t.Fatalf("directory %+v → %+v, want one fallback and one hydration", before, after)
	}
	if scanned := after.ScannedValues - before.ScannedValues; scanned != uint64(f.or.Count()) {
		t.Fatalf("the hydration scanned %d values, want all %d", scanned, f.or.Count())
	}
	if got := checkOracle(t, st, f.or); got != want {
		t.Fatalf("answers after the hydration\n got %s\nwant %s", got, want)
	}
}

// TestSidecarEveryBitFlipRefused: every single-bit flip of a stream's
// SUMMARY.bin is refused, and a cold read over the flipped file falls back
// to one hydration, counted, which answers the undamaged summary.
func TestSidecarEveryBitFlipRefused(t *testing.T) {
	f := newColdFixture(t, 0.1, 6)
	fresh := f.evict()
	silent := 0
	for bit := range 8 * len(fresh) {
		f.forget()
		flipped := slices.Clone(fresh)
		flipped[bit/8] ^= 1 << (bit % 8)
		if err := f.db.dev.WriteMeta(sidecarPath("s"), flipped); err != nil {
			t.Fatal(err)
		}
		before := f.db.DirectoryStats()
		got := f.answer(query.Scope{})
		after := f.db.DirectoryStats()
		if got != string(fresh) || after.SummaryFallbacks != before.SummaryFallbacks+1 || after.Hydrations != before.Hydrations+1 {
			if silent++; silent <= 5 {
				t.Errorf("flip of bit %d (byte %d of %d): %d fallbacks, %d hydrations, answer equal %v; want one fallback",
					bit, bit/8, len(fresh), after.SummaryFallbacks-before.SummaryFallbacks, after.Hydrations-before.Hydrations, got == string(fresh))
			}
		}
		if rewritten := f.evict(); !bytes.Equal(rewritten, fresh) {
			t.Fatalf("flip of bit %d: the next eviction wrote %x, want %x", bit, rewritten, fresh)
		}
	}
	if silent > 0 {
		t.Errorf("%d of %d single-bit flips were not refused", silent, 8*len(fresh))
	}
	t.Logf("%d-byte SUMMARY.bin: %d single-bit flips, %d not refused", len(fresh), 8*len(fresh), silent)
}

// TestDecodedSummaryFeedsHydration: a summary a cold read decoded from
// SUMMARY.bin feeds the next hydration as an eviction's does, once a scan
// since Open has checked the partitions' order. The eviction here finds the
// budget full, so it writes the file at once and holds nothing; a cold read
// decodes and holds it, and the hydration opens no partition and scans no
// value, its answers the oracle's.
func TestDecodedSummaryFeedsHydration(t *testing.T) {
	backend := &partReadBackend{Backend: disk.NewMemBackend()}
	db, err := Open(Options{Epsilon: 0.05, Kappa: 2, Device: backend, BlockSize: 512, MaxHydratedStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	st, err := db.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	or := oracle.New(0)
	for step := 0; step < 9; step++ {
		vs := make([]int64, 100+rng.Intn(200))
		for i := range vs {
			vs[i] = rng.Int63n(5000)
		}
		st.ObserveSlice(vs)
		or.Add(vs...)
		if _, err := st.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	want := checkOracle(t, st, or)
	before := db.DirectoryStats()
	db.coldBudget = 0
	if _, err := db.Stream("other"); err != nil { // takes the one slot
		t.Fatal(err)
	}
	db.coldBudget = coldSummaryBudget
	evicted := db.DirectoryStats()
	if st.Hydrated() || evicted.SidecarWrites != before.SidecarWrites+1 || evicted.ColdSummaryBytes != 0 {
		t.Fatalf("fixture: eviction %+v → %+v, want s cold, its SUMMARY.bin written and nothing held", before, evicted)
	}
	if _, err := db.ScopedSummary("s", query.Scope{}); err != nil {
		t.Fatal(err)
	}
	held := db.DirectoryStats()
	if held.SidecarDecodes != evicted.SidecarDecodes+1 || held.ColdSummaryBytes == 0 || held.Hydrations != evicted.Hydrations {
		t.Fatalf("cold read %+v → %+v, want one decode, a held summary and no hydration", evicted, held)
	}
	opens := backend.opens.Load()
	if _, err := db.Stream("s"); err != nil {
		t.Fatal(err)
	}
	after := db.DirectoryStats()
	if got := backend.opens.Load() - opens; got != 0 || after.ScannedValues != held.ScannedValues || after.Hydrations != held.Hydrations+1 {
		t.Fatalf("the hydration opened %d partition files; directory %+v → %+v, want one hydration, none scanned", got, held, after)
	}
	if got := checkOracle(t, st, or); got != want {
		t.Fatalf("answers after the hydration\n got %s\nwant %s", got, want)
	}
}

// TestFirstHydrationAfterOpenChecksPartitions: the first hydration after
// Open scans every partition, so a partition rewritten out of order through
// the columnar Writer (which checksums whatever it is given) is refused — even though the stream's cold read, from
// the SUMMARY.bin Close wrote, holds a summary that matches the manifest.
func TestFirstHydrationAfterOpenChecksPartitions(t *testing.T) {
	backend := disk.NewMemBackend()
	opts := Options{Epsilon: 0.1, Kappa: 2, Device: backend, BlockSize: 512, MaxHydratedStreams: 1}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(0); step < 3; step++ {
		for v := int64(0); v < 100; v++ {
			st.Observe(step*1000 + v)
		}
		if _, err := st.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	raw, err := db.dev.ReadMeta(streamManifestPath("s"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := partition.ParseManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	view, err := db.dev.Namespace(streamNamespacePrefix + "/s")
	if err != nil {
		t.Fatal(err)
	}
	p := m.Parts[0]
	w, err := view.Create(p.Name)
	if err != nil {
		t.Fatal(err)
	}
	for v := p.Count; v > 0; v-- { // the right count, descending
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if sum, err := db.ScopedSummary("s", query.Scope{}); err != nil || sum.N != 300 {
		t.Fatalf("cold read: %+v, %v; want the sidecar's 300 values", sum, err)
	}
	if ds := db.DirectoryStats(); ds.ColdSummaryBytes == 0 || ds.Hydrations != 0 {
		t.Fatalf("fixture: the cold read held nothing or hydrated: %+v", ds)
	}
	if _, err := db.Stream("s"); err == nil || !strings.Contains(err.Error(), "is not sorted on disk") || !strings.Contains(err.Error(), p.Name) {
		t.Fatalf("first hydration after Open = %v, want a refusal naming %s as not sorted", err, p.Name)
	}
}
