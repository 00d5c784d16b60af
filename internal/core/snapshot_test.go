package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/partition"
)

// synthShard builds a ShardSummary with sorted random summary values.
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
	for i := 0; i < parts; i++ {
		count := int64(100 + rng.Intn(10_000))
		s.Parts = append(s.Parts, PartSummary{Count: count, Values: sorted(3 + rng.Intn(40))})
		s.N += count
	}
	for i := 0; i < pieces; i++ {
		m := int64(1 + rng.Intn(5_000))
		s.Pieces = append(s.Pieces, StreamPiece{M: m, SS: sorted(1 + rng.Intn(20))})
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
	}
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
}

// hostileShard encodes a shard summary of one part and one piece as given:
// AppendBinary checks nothing, and the delta codec is signed, so this is
// what a peer can put on the wire.
func hostileShard(count int64, part []int64, m int64, piece []int64) []byte {
	s := &ShardSummary{
		N: 10, Eps1: 0.05, Eps2: 0.025,
		Parts:  []PartSummary{{Count: count, Values: part}},
		Pieces: []StreamPiece{{M: m, SS: piece}},
	}
	return s.AppendBinary(nil)
}

// TestDecodeRejectsUnsortedRuns: sortedness is the selector's precondition,
// so a part or piece whose values descend — or whose count would be
// negative — is refused at the door; duplicates and empty runs are fine.
func TestDecodeRejectsUnsortedRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  []byte
		ok   bool
	}{
		{"sorted", hostileShard(5, []int64{1, 2, 3}, 5, []int64{4, 5}), true},
		{"all equal", hostileShard(5, []int64{7, 7, 7}, 5, []int64{7, 7}), true},
		{"empty runs with mass", hostileShard(5, nil, 5, nil), true},
		{"part descends", hostileShard(5, []int64{1, 3, 2}, 5, []int64{4, 5}), false},
		{"piece descends", hostileShard(5, []int64{1, 2, 3}, 5, []int64{5, 4}), false},
		{"part descends at the end", hostileShard(5, []int64{1, 2, 3, math.MinInt64}, 5, nil), false},
		{"negative part count", hostileShard(-1, []int64{1, 2, 3}, 5, []int64{4, 5}), false},
		{"negative piece count", hostileShard(5, []int64{1, 2, 3}, -1, []int64{4, 5}), false},
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

// FuzzDecodeShardSummary: whatever decodes has sorted runs and non-negative
// counts, survives a re-encode, and can be selected over.
func FuzzDecodeShardSummary(f *testing.F) {
	f.Add(synthShard(rand.New(rand.NewSource(1)), 3, 2, 0.05, 0.025).AppendBinary(nil))
	f.Add(hostileShard(5, []int64{1, 3, 2}, 5, []int64{5, 4}))
	f.Add(hostileShard(-1, nil, 5, []int64{math.MaxInt64, math.MinInt64}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeShardSummary(data)
		if err != nil {
			return
		}
		for _, p := range s.Parts {
			if p.Count < 0 || !slices.IsSorted(p.Values) {
				t.Fatalf("decoded part %+v", p)
			}
		}
		for _, p := range s.Pieces {
			if p.M < 0 || !slices.IsSorted(p.SS) {
				t.Fatalf("decoded piece %+v", p)
			}
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
