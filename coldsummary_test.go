package hsq

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/enc"
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

func newColdFixture(t *testing.T, steps int) *coldFixture {
	db, err := Open(Options{Epsilon: 0.1, Kappa: 2, Backend: "mem", BlockSize: 512, MaxHydratedStreams: 1})
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

// evict seals "s" cold by giving "other" the one slot; the eviction writes
// a fresh sidecar, which evict returns.
func (f *coldFixture) evict() []byte {
	f.t.Helper()
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
	f := newColdFixture(t, 5)
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
// unsorted, another build's, another ε's or gone — never answers. The read
// hydrates once, is counted as a fallback, and returns what the hydrated
// engine returns; the next eviction rewrites the file and the same reads
// hydrate nothing.
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
	for _, tc := range []struct {
		name string
		// damage returns the bytes to put in place of the fresh sidecar it
		// is given, each its own trial; a nil entry removes the file.
		damage func(f *coldFixture, fresh []byte) [][]byte
	}{
		{"stale steps", func(f *coldFixture, fresh []byte) [][]byte {
			f.step("s", 2)
			return [][]byte{fresh}
		}},
		{"layout from before a merge", edited(func(t *testing.T, sum *core.ShardSummary) {
			// Same steps, same total: the first multi-step partition as the
			// two it was merged from.
			i := slices.IndexFunc(sum.Parts, func(p core.PartSummary) bool { return p.EndStep > p.StartStep })
			if i < 0 {
				t.Fatal("fixture: no merged partition")
			}
			p, h := sum.Parts[i], len(sum.Parts[i].Values)/2
			sum.Parts = slices.Replace(sum.Parts, i, i+1,
				core.PartSummary{Count: p.Count / 2, StartStep: p.StartStep, EndStep: p.StartStep, Values: p.Values[:h]},
				core.PartSummary{Count: p.Count - p.Count/2, StartStep: p.StartStep + 1, EndStep: p.EndStep, Values: p.Values[h:]})
		})},
		{"truncated", func(_ *coldFixture, fresh []byte) (cuts [][]byte) {
			for n := 1; n < len(fresh); n++ { // a nil entry would mean "missing"
				cuts = append(cuts, fresh[:n])
			}
			return append(cuts, []byte{})
		}},
		{"trailing byte", func(_ *coldFixture, fresh []byte) [][]byte {
			return [][]byte{append(slices.Clone(fresh), 0)}
		}},
		{"N off by one", edited(func(t *testing.T, sum *core.ShardSummary) { sum.N++ })},
		{"first run reversed", edited(func(t *testing.T, sum *core.ShardSummary) {
			vs := slices.Clone(sum.Parts[0].Values)
			slices.Reverse(vs)
			if slices.IsSorted(vs) {
				t.Fatal("fixture: first run is constant")
			}
			sum.Parts[0].Values = vs
		})},
		{"version 1", func(f *coldFixture, fresh []byte) [][]byte {
			sum, err := core.DecodeShardSummary(fresh)
			if err != nil {
				f.t.Fatal(err)
			}
			return [][]byte{v1Sidecar(sum.Parts)}
		}},
		{"another epsilon", edited(func(t *testing.T, sum *core.ShardSummary) { sum.Eps1, sum.Eps2 = sum.Eps1/2, sum.Eps2/2 })},
		{"stream-side piece", edited(func(t *testing.T, sum *core.ShardSummary) {
			sum.Pieces, sum.N = []core.StreamPiece{{M: 1, SS: []int64{7}}}, sum.N+1
		})},
		{"missing", func(*coldFixture, []byte) [][]byte { return [][]byte{nil} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newColdFixture(t, 5)
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
}
