package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/enc"
	"repro/internal/partition"
)

// synthShard builds a ShardSummary with sorted random summary values, each
// run as many as the capture rule takes of its mass, its parts covering
// consecutive runs of one to three steps.
func synthShard(rng *rand.Rand, parts, pieces int, eps1, eps2 float64) *ShardSummary {
	s := &ShardSummary{Eps1: eps1, Eps2: eps2}
	sorted := func(n int) []int64 {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = rng.Int63n(1_000_000) - 500_000
		}
		slices.Sort(vs)
		return vs
	}
	for i, step := 0, 0; i < parts; i++ {
		count, start := int64(100+rng.Intn(10_000)), step+1
		step += 1 + rng.Intn(3)
		s.Parts = append(s.Parts, PartSummary{Count: count, StartStep: start, EndStep: step, Values: sorted(partition.Beta(count, eps1))})
		s.N += count
	}
	for i := 0; i < pieces; i++ {
		m := int64(1 + rng.Intn(5_000))
		s.Pieces = append(s.Pieces, StreamPiece{M: m, SS: sorted(partition.Beta(m, eps2))})
		s.N += m
	}
	return s
}

func TestShardSummaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []*ShardSummary{
		{Eps1: 0.05, Eps2: 0.025},            // empty
		synthShard(rng, 0, 1, 0.05, 0.025),   // stream only
		synthShard(rng, 4, 0, 0.05, 0.025),   // history only
		synthShard(rng, 7, 3, 0.005, 0.0025), // both
		synthShard(rng, 1, 1, 1e-9, 1e-9),    // tiny eps
		synthShard(rng, 5, 0, 0.05, 0.025),   // a part of no elements: no values, decodes to nil
	}
	cases[5].N -= cases[5].Parts[2].Count
	cases[5].Parts[2].Count, cases[5].Parts[2].Values = 0, nil
	for i, want := range cases {
		enc := want.AppendBinary(nil)
		got, err := DecodeShardSummary(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: round trip:\n got %+v\nwant %+v", i, got, want)
		}
		// Corrupt/truncated prefixes must error, never panic.
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeShardSummary(enc[:cut]); err == nil && cut < len(enc) {
				t.Fatalf("case %d: truncation at %d accepted", i, cut)
			}
		}
		if _, err := DecodeShardSummary(append(enc[:len(enc):len(enc)], 0)); err == nil {
			t.Errorf("case %d: trailing byte accepted", i)
		}
	}
	// A length beyond the input must error before anything is allocated for it.
	lying := (&ShardSummary{N: 1}).AppendBinary(nil)
	lying = lying[:len(lying)-2]               // drop "0 parts, 0 pieces"
	lying = append(lying, 1, 1, 1, 1)          // one part: count, start, end
	lying = binary.AppendUvarint(lying, 1<<40) // a terabyte of values, it says
	if _, err := DecodeShardSummary(lying); err == nil {
		t.Error("lying length accepted")
	}
}

// hostileShard encodes a shard summary of one part and one piece as given,
// at ε₁ = 0.05 and ε₂ = 0.025, where a run of up to 20 elements is captured
// whole: AppendBinary checks nothing, and the delta codec is signed, so this
// is what a peer can put on the wire.
func hostileShard(count int64, part []int64, m int64, piece []int64) []byte {
	s := &ShardSummary{
		N: 10, Eps1: 0.05, Eps2: 0.025,
		Parts:  []PartSummary{{Count: count, Values: part}},
		Pieces: []StreamPiece{{M: m, SS: piece}},
	}
	return s.AppendBinary(nil)
}

// v1Shard is a one-part summary in the version-1 encoding earlier builds put
// on the wire and in SUMMARY.bin: no step range on the part.
func v1Shard() []byte {
	buf := []byte{1}
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(0.05))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(0.025))
	buf = append(buf, 5, 1, 5, 3) // N, one part: count, len
	buf = enc.AppendDelta(buf, []int64{1, 2, 3})
	return append(buf, 0) // no pieces
}

// TestDecodeRejectsUnsortedRuns: sortedness is the selector's precondition,
// N the base of every rank target and the capture rule the place of every
// entry, so a part or piece whose values descend, whose count would be
// negative or whose entry count is not the rule's for its mass, an N that
// is not the sum of the counts, a step range that ends before it starts and
// another version's bytes are all refused at the door; duplicates and runs
// of no elements are fine.
func TestDecodeRejectsUnsortedRuns(t *testing.T) {
	steps := func(n int64, start, end int) []byte {
		s := &ShardSummary{N: n, Eps1: 0.05, Eps2: 0.025, Parts: []PartSummary{{Count: 5, StartStep: start, EndStep: end, Values: []int64{1, 1, 2, 3, 4, 5}}}}
		return s.AppendBinary(nil)
	}
	if _, err := DecodeShardSummary(v1Shard()); err == nil || !strings.Contains(err.Error(), "version 1 (want 4)") {
		t.Errorf("version-1 payload: %v, want a version error", err)
	}
	// Versions 2 and 3 have version 4's layout, but version 2's piece
	// entries sat at band middles, not at the capture positions the bounds
	// read, and version 3 took ⌈1/ε⌉+1 entries of a run of fewer elements.
	for _, v := range []byte{2, 3} {
		old := steps(5, 1, 1)
		old[0] = v
		if _, err := DecodeShardSummary(old); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d (want 4)", v)) {
			t.Errorf("version-%d payload: %v, want a version error", v, err)
		}
	}
	// Version 3's count for a 5-element run at ε₁ = 0.05: 21 entries, the
	// positions past the fifth repeating the maximum.
	old := make([]int64, 21)
	for i := range old {
		old[i] = min(int64(i), 5)
	}
	for _, tc := range []struct {
		name string
		enc  []byte
		ok   bool
	}{
		{"sorted", hostileShard(5, []int64{1, 1, 2, 3, 4, 5}, 5, []int64{4, 4, 5, 6, 7, 8}), true},
		{"all equal", hostileShard(5, []int64{7, 7, 7, 7, 7, 7}, 5, []int64{7, 7, 7, 7, 7, 7}), true},
		{"runs of no elements", hostileShard(0, nil, 10, []int64{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}), true},
		{"part descends", hostileShard(5, []int64{1, 1, 3, 2, 4, 5}, 5, []int64{4, 4, 5, 6, 7, 8}), false},
		{"piece descends", hostileShard(5, []int64{1, 1, 2, 3, 4, 5}, 5, []int64{4, 4, 5, 6, 8, 7}), false},
		{"part descends at the end", hostileShard(5, []int64{1, 2, 3, 4, 5, math.MinInt64}, 5, []int64{4, 4, 5, 6, 7, 8}), false},
		{"part short of the rule's count", hostileShard(5, []int64{1, 2, 3}, 5, []int64{4, 4, 5, 6, 7, 8}), false},
		{"piece short of the rule's count", hostileShard(5, []int64{1, 1, 2, 3, 4, 5}, 5, []int64{4, 5}), false},
		{"part beyond the rule's count", hostileShard(5, old, 5, []int64{4, 4, 5, 6, 7, 8}), false},
		{"piece beyond the rule's count", hostileShard(5, []int64{1, 1, 2, 3, 4, 5}, 5, old), false},
		{"empty part with mass", hostileShard(5, nil, 5, []int64{4, 4, 5, 6, 7, 8}), false},
		{"empty piece with mass", hostileShard(5, []int64{1, 1, 2, 3, 4, 5}, 5, nil), false},
		{"part of 1 000 elements in 3 values", (&ShardSummary{N: 1000, Eps1: 0.05, Eps2: 0.025, Parts: []PartSummary{{Count: 1000, Values: []int64{1, 2, 3}}}}).AppendBinary(nil), false},
		{"ε₁ of 0", (&ShardSummary{N: 5, Parts: []PartSummary{{Count: 5, Values: []int64{1, 1, 2, 3, 4, 5}}}}).AppendBinary(nil), false},
		{"negative part count", hostileShard(-1, []int64{1, 1, 2, 3, 4, 5}, 5, []int64{4, 4, 5, 6, 7, 8}), false},
		{"negative piece count", hostileShard(5, []int64{1, 1, 2, 3, 4, 5}, -1, []int64{4, 4, 5, 6, 7, 8}), false},
		{"counts short of N", hostileShard(5, []int64{1, 1, 2, 3, 4, 5}, 4, []int64{4, 4, 5, 6, 7}), false},
		{"counts beyond N", hostileShard(5, []int64{1, 1, 2, 3, 4, 5}, 6, []int64{4, 4, 5, 6, 7, 8, 9}), false},
		{"counts wrap around to N", (&ShardSummary{N: 10, Parts: []PartSummary{{Count: math.MaxInt64}, {Count: math.MaxInt64}, {Count: 12}}}).AppendBinary(nil), false},
		{"negative N", steps(-5, 1, 1), false},
		{"one-step range", steps(5, 3, 3), true},
		{"range ends before it starts", steps(5, 3, 2), false},
		{"negative start step", steps(5, -1, 2), false},
	} {
		s, err := DecodeShardSummary(tc.enc)
		if (err == nil) != tc.ok {
			t.Errorf("%s: decode error %v, want ok = %v", tc.name, err, tc.ok)
		}
		if err != nil {
			continue
		}
		if _, _, err := MergeShardSummaries([]*ShardSummary{s}); err != nil {
			t.Errorf("%s: merge: %v", tc.name, err)
		}
	}
}

// FuzzDecodeShardSummary: whatever decodes — off the wire or out of a
// SUMMARY.bin — has sorted runs, non-negative counts that sum to N and
// forward step ranges, survives a re-encode, and can be selected over.
func FuzzDecodeShardSummary(f *testing.F) {
	f.Add(synthShard(rand.New(rand.NewSource(1)), 3, 2, 0.05, 0.025).AppendBinary(nil))
	f.Add(hostileShard(5, []int64{1, 3, 2}, 5, []int64{5, 4}))
	f.Add(hostileShard(-1, nil, 5, []int64{math.MaxInt64, math.MinInt64}))
	f.Add([]byte{})
	f.Add(v1Shard())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeShardSummary(data)
		if err != nil {
			return
		}
		sum := new(big.Int)
		for _, p := range s.Parts {
			if p.Count < 0 || !slices.IsSorted(p.Values) || p.StartStep < 0 || p.EndStep < p.StartStep {
				t.Fatalf("decoded part %+v", p)
			}
			sum.Add(sum, big.NewInt(p.Count))
		}
		for _, p := range s.Pieces {
			if p.M < 0 || !slices.IsSorted(p.SS) {
				t.Fatalf("decoded piece %+v", p)
			}
			sum.Add(sum, big.NewInt(p.M))
		}
		if sum.Cmp(big.NewInt(s.N)) != 0 {
			t.Fatalf("decoded N = %d over runs that sum to %s", s.N, sum)
		}
		enc := s.AppendBinary(nil)
		if again, err := DecodeShardSummary(enc); err != nil || !bytes.Equal(again.AppendBinary(nil), enc) {
			t.Fatalf("re-decode of %+v: %v, %+v", s, err, again)
		}
		c, _, err := MergeShardSummaries([]*ShardSummary{s})
		if err != nil || c == nil {
			return
		}
		c.QuickRank(0)
		if _, _, err := c.Filters(c.N() / 2); (err != nil) != (len(c.runs) == 0) {
			t.Fatalf("filters over %d runs: %v", len(c.runs), err)
		}
	})
}

// BenchmarkDecodeShardSummary is one cold stream's read on the fleet plan:
// a SUMMARY.bin of ~22 partition summaries of β₁ = 2001 values.
func BenchmarkDecodeShardSummary(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	s := &ShardSummary{Eps1: 0.0005, Eps2: 0.00025}
	for i := 1; i <= 22; i++ {
		vs := make([]int64, 2001)
		for j := range vs {
			vs[j] = rng.Int63n(1 << 30)
		}
		slices.Sort(vs)
		s.Parts = append(s.Parts, PartSummary{Count: 20010, StartStep: i, EndStep: i, Values: vs})
		s.N += 20010
	}
	raw := s.AppendBinary(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		if _, err := DecodeShardSummary(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMergeMatchesSinglePass pins the acceptance property of the cluster
// query path: merging per-shard summaries yields the identical Combined —
// the same runs, so the same TS values and L/U bounds once materialised and
// the same quick answers at every rank — as building one Combined over the
// concatenation of every shard's sources.
func TestMergeMatchesSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const eps1, eps2 = 0.05, 0.025
	shards := []*ShardSummary{
		synthShard(rng, 5, 2, eps1, eps2),
		synthShard(rng, 0, 1, eps1, eps2),
		{Eps1: 0.9, Eps2: 0.9}, // empty shard: skipped, mismatched ε tolerated
		synthShard(rng, 3, 4, eps1, eps2),
	}

	merged, total, err := MergeShardSummaries(shards)
	if err != nil {
		t.Fatal(err)
	}

	var sums []*partition.Summary
	var pieces []StreamPiece
	var wantTotal int64
	for _, sh := range shards {
		if sh.N == 0 {
			continue
		}
		for _, p := range sh.Parts {
			sums = append(sums, &partition.Summary{Part: &partition.Partition{Count: p.Count}, Values: p.Values})
		}
		pieces = append(pieces, sh.Pieces...)
		wantTotal += sh.N
	}
	want := BuildPieces(sums, pieces, eps1, eps2)

	if total != wantTotal || total != merged.N() {
		t.Fatalf("total: got %d (Combined.N %d), want %d", total, merged.N(), wantTotal)
	}
	if !sameTS(t, materialise(merged), materialise(want)) {
		t.Fatal("merged shards materialise unlike the single pass")
	}
	for r := int64(1); r <= total; r += total / 97 {
		g, err1 := merged.QuickQuery(r)
		w, err2 := want.QuickQuery(r)
		if err1 != nil || err2 != nil || g != w {
			t.Fatalf("QuickQuery(%d): got (%d,%v), want (%d,%v)", r, g, err1, w, err2)
		}
	}
}

func TestMergeRejectsMixedEps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := synthShard(rng, 1, 1, 0.05, 0.025)
	b := synthShard(rng, 1, 1, 0.01, 0.005)
	if _, _, err := MergeShardSummaries([]*ShardSummary{a, b}); err == nil {
		t.Fatal("mixed-ε shards merged without error")
	}
}

func TestMergeAllEmpty(t *testing.T) {
	c, total, err := MergeShardSummaries([]*ShardSummary{{Eps1: 1, Eps2: 1}, nil})
	if err != nil || c != nil || total != 0 {
		t.Fatalf("got (%v, %d, %v), want (nil, 0, nil)", c, total, err)
	}
}
