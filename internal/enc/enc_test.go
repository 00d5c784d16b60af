package enc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func roundTrip(t *testing.T, vs []int64) {
	t.Helper()
	buf := AppendDelta(nil, vs)
	got := make([]int64, len(vs))
	rest, err := DecodeDelta(got, buf)
	if err != nil {
		t.Fatalf("DecodeDelta(%v): %v", vs, err)
	}
	if len(rest) != 0 {
		t.Fatalf("DecodeDelta left %d bytes unconsumed", len(rest))
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("round trip mismatch at %d: got %d, want %d", i, got[i], vs[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{0},
		{42},
		{-1},
		{math.MinInt64},
		{math.MaxInt64},
		{math.MinInt64, math.MaxInt64, math.MinInt64},
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
		{0, 0, 0, 0},
	}
	for _, vs := range cases {
		roundTrip(t, vs)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		vs := make([]int64, rng.Intn(200))
		for i := range vs {
			vs[i] = rng.Int63() - rng.Int63()
		}
		roundTrip(t, vs)
	}
}

// TestSortedRunsCompress pins the property the columnar block format relies
// on: a sorted run of nearby values encodes far below 8 bytes per element.
func TestSortedRunsCompress(t *testing.T) {
	vs := make([]int64, 1000)
	for i := range vs {
		vs[i] = int64(1_000_000 + i*3)
	}
	buf := AppendDelta(nil, vs)
	if len(buf) > 2*len(vs)+binary.MaxVarintLen64 {
		t.Fatalf("sorted run encoded to %d bytes for %d elements; want <= ~2 B/element", len(buf), len(vs))
	}
}

func TestDecodeTruncated(t *testing.T) {
	buf := AppendDelta(nil, []int64{1, 100, 10000})
	for cut := 0; cut < len(buf); cut++ {
		dst := make([]int64, 3)
		if _, err := DecodeDelta(dst, buf[:cut]); err == nil {
			t.Fatalf("DecodeDelta accepted truncation at %d bytes", cut)
		}
	}
}

func TestDecodeLeavesRest(t *testing.T) {
	vs := []int64{7, -9, 12345}
	buf := AppendDelta(nil, vs)
	tail := []byte{0xde, 0xad, 0xbe, 0xef}
	buf = append(buf, tail...)
	dst := make([]int64, len(vs))
	rest, err := DecodeDelta(dst, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, tail) {
		t.Fatalf("rest = %x, want %x", rest, tail)
	}
}

// FuzzDeltaRoundTrip decodes arbitrary bytes as a delta frame and, when they
// parse, re-encodes and checks the round trip — plus the inverse direction
// seeded from the raw bytes reinterpreted as elements.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte{2, 2, 2}, uint8(3))
	f.Add(AppendDelta(nil, []int64{math.MinInt64, math.MaxInt64}), uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		dst := make([]int64, n)
		rest, err := DecodeDelta(dst, data)
		if err == nil {
			consumed := data[:len(data)-len(rest)]
			re := AppendDelta(nil, dst)
			back := make([]int64, n)
			if _, err := DecodeDelta(back, re); err != nil {
				t.Fatalf("re-decode failed: %v (src %x)", err, consumed)
			}
			for i := range dst {
				if back[i] != dst[i] {
					t.Fatalf("element %d changed across re-encode: %d != %d", i, back[i], dst[i])
				}
			}
		}
		// Inverse direction: bytes → elements → encode → decode.
		vs := make([]int64, 0, len(data)/2)
		for i := 0; i+8 <= len(data) && len(vs) < 64; i += 8 {
			vs = append(vs, int64(binary.LittleEndian.Uint64(data[i:])))
		}
		buf := AppendDelta(nil, vs)
		got := make([]int64, len(vs))
		rest, err = DecodeDelta(got, buf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("encode→decode failed: %v (rest %d)", err, len(rest))
		}
		for i := range vs {
			if got[i] != vs[i] {
				t.Fatalf("element %d: got %d, want %d", i, got[i], vs[i])
			}
		}
	})
}

// TestReader: fields read back in order, the first bad field latches and
// zeroes every later read, and a declared length beyond the bytes left is
// refused before it is allocated.
func TestReader(t *testing.T) {
	buf := []byte{7}
	buf = binary.BigEndian.AppendUint64(buf, 1<<63|5)
	buf = binary.AppendUvarint(buf, 300)
	buf = binary.AppendUvarint(buf, 3)
	buf = AppendDelta(buf, []int64{-4, 9, 9})
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.AppendUvarint(buf, 2)
	buf = AppendDelta(buf, []int64{math.MinInt64, math.MaxInt64})

	r := NewReader(buf)
	if b, u, v := r.Byte(), r.Uint64(), r.Uvarint(); b != 7 || u != 1<<63|5 || v != 300 {
		t.Fatalf("header = %d, %d, %d", b, u, v)
	}
	first := r.Values()
	if empty := r.Values(); empty != nil {
		t.Errorf("empty list = %v, want nil", empty)
	}
	second := r.Values()
	if !slices.Equal(first, []int64{-4, 9, 9}) || !slices.Equal(second, []int64{math.MinInt64, math.MaxInt64}) || r.Err() != nil || r.Len() != 0 {
		t.Fatalf("values = %v, %v, err %v, %d bytes left", first, second, r.Err(), r.Len())
	}
	if r.Byte(); !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("read past the end: err = %v", r.Err())
	}
	if v := r.Uvarint(); v != 0 || r.Values() != nil {
		t.Error("reads after an error must return zero")
	}

	for cut := 0; cut < len(buf); cut++ {
		r := NewReader(buf[:cut])
		r.Byte()
		r.Uint64()
		r.Uvarint()
		r.Values()
		r.Values()
		r.Values()
		if r.Err() == nil {
			t.Fatalf("truncation at %d went unnoticed", cut)
		}
	}

	lying := NewReader(binary.AppendUvarint(nil, 1<<50))
	if vs := lying.Values(); vs != nil || lying.Err() == nil {
		t.Errorf("lying length: %d values, err %v", len(vs), lying.Err())
	}
	bad := NewReader([]byte{2, 0x02}) // two values declared, one present
	if got := bad.Values(); got != nil || bad.Err() == nil {
		t.Errorf("short list = %v, err %v; want nil and an error", got, bad.Err())
	}
}
