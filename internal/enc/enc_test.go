package enc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// FuzzDeltaRoundTrip decodes arbitrary bytes as a delta frame with the kernel
// and with the loop it replaced, which must agree on every input, and, when
// they parse, re-encodes and checks the round trip — plus the inverse
// direction seeded from the raw bytes reinterpreted as elements.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte{2, 2, 2}, uint8(3))
	f.Add(AppendDelta(nil, []int64{math.MinInt64, math.MaxInt64}), uint8(2))
	f.Add([]byte{}, uint8(0))
	for _, c := range hostileFrames {
		f.Add(c.buf, uint8(c.n))
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		sameAsReference(t, int(n), data)
		scanAgrees(t, int(n), data)
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

// decodeDeltaRef is the loop DecodeDelta replaced, one binary.Varint per
// element: the oracle the kernel must agree with on every input.
func decodeDeltaRef(dst []int64, buf []byte) (rest []byte, err error) {
	prev := int64(0)
	for i := range dst {
		d, n := binary.Varint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("enc: bad varint at element %d", i)
		}
		buf = buf[n:]
		prev += d
		dst[i] = prev
	}
	return buf, nil
}

// sameAsReference decodes n elements from buf with both decoders, each into a
// poisoned dst, and fails unless the elements (the written prefix on an
// error included), the bytes left, and the error are the same.
func sameAsReference(t *testing.T, n int, buf []byte) {
	t.Helper()
	got, want := make([]int64, n), make([]int64, n)
	for i := range got {
		got[i], want[i] = -7, -7
	}
	rest, err := DecodeDelta(got, buf)
	wantRest, wantErr := decodeDeltaRef(want, buf)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("n=%d buf=%x: err %v, reference %v", n, buf, err, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d buf=%x: values %v, reference %v", n, buf, got, want)
	}
	if (rest == nil) != (wantRest == nil) || !bytes.Equal(rest, wantRest) {
		t.Fatalf("n=%d buf=%x: rest %x, reference %x", n, buf, rest, wantRest)
	}
}

// rep returns n copies of b.
func rep(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// hostileFrames are inputs on the edges of the kernel's tiers: where a tier
// hands over to the next, where the buffer ends inside a delta, and where
// binary.Varint refuses.
var hostileFrames = []struct {
	name string
	n    int
	buf  []byte
}{
	{"empty, nothing asked", 0, nil},
	{"empty, one asked", 1, nil},
	{"nothing asked, bytes left", 0, []byte{0x80, 0x80}},
	{"single byte at buffer end", 1, []byte{0x03}},
	{"single byte, eight left", 1, append([]byte{0x03}, rep(0xff, 8)...)},
	{"non-canonical zero", 1, []byte{0x80, 0x00}},
	{"non-canonical zero, inline tier", 2, append([]byte{0x80, 0x00, 0x80, 0x80, 0x00}, rep(0x01, 8)...)},
	{"tenth byte 1 (MinInt64)", 1, append(rep(0xff, 9), 0x01)},
	{"tenth byte 2 (overflow)", 1, append(rep(0xff, 9), 0x02)},
	{"tenth byte 2 mid-buffer", 3, append(append([]byte{0x02}, append(rep(0xff, 9), 0x02)...), rep(0x02, 9)...)},
	{"eleven-byte run", 1, append(rep(0x80, 10), 0x00)},
	{"eleven-byte run mid-buffer", 2, append(append([]byte{0x05}, rep(0x80, 10)...), rep(0x00, 9)...)},
	{"all continuation bytes", 4, rep(0xff, 40)},
	{"eight-byte delta then end", 1, append(rep(0x80, 7), 0x7f)},
	{"eight-byte delta, tier boundary", 2, append(append(rep(0xff, 7), 0x7f), rep(0x01, 8)...)},
	{"nine-byte delta", 2, append(append(rep(0xff, 8), 0x7f), rep(0x01, 8)...)},
	{"dst longer than the bytes supply", 9, []byte{0x02, 0x04, 0x06}},
	{"dst longer, ends inside a delta", 9, append(rep(0x02, 12), 0x80)},
	{"trailing bytes left in rest", 2, []byte{0x02, 0x81, 0x01, 0xde, 0xad, 0xbe, 0xef}},
	{"trailing bytes, inline tier", 2, append([]byte{0x02, 0x81, 0x01}, rep(0xee, 16)...)},
}

// TestDecodeMatchesReference: the kernel accepts and rejects exactly what
// the one-binary.Varint-per-element loop did and returns the same values,
// the same rest and the same error — on the edges of its tiers, on every
// truncation of 1-, 2-, 3-, 8-, 9- and 10-byte deltas with and without the
// slack that selects the inline tiers, and on 10 000 seeded random frames.
func TestDecodeMatchesReference(t *testing.T) {
	for _, c := range hostileFrames {
		t.Run(c.name, func(t *testing.T) { sameAsReference(t, c.n, c.buf) })
	}

	// Deltas of every width, including the wrap from MinInt64 to MaxInt64.
	widths := []int64{0, -1, 63, -64, 64, 8191, -8192, 8192, 1<<20 - 1, 1 << 27, -1 << 34, 1 << 41, 1<<48 + 5, 1<<55 - 1, 1 << 55, -1 << 62, math.MaxInt64, math.MinInt64}
	for _, d := range widths {
		for _, lead := range [][]int64{nil, {5}, {5, 300, 70000}} {
			vs := append(slices.Clone(lead), 0, 0)
			vs[len(lead)] = d
			vs[len(lead)+1] = d + d // wraps for the extremes
			buf := AppendDelta(nil, vs)
			for cut := 0; cut <= len(buf); cut++ {
				sameAsReference(t, len(vs), buf[:cut])
				sameAsReference(t, len(vs)+1, buf[:cut])
			}
			// The same frame with slack behind it decodes in the inline tiers.
			sameAsReference(t, len(vs), append(slices.Clone(buf), rep(0xff, 16)...))
		}
	}
	sameAsReference(t, 3, AppendDelta(nil, []int64{math.MinInt64, math.MaxInt64, math.MinInt64}))

	rng := rand.New(rand.NewSource(22))
	shapes := []func(vs []int64){
		func(vs []int64) { // sorted-near
			v := rng.Int63n(1 << 28)
			for i := range vs {
				v += rng.Int63n(1 << uint(rng.Intn(14)))
				vs[i] = v
			}
		},
		func(vs []int64) { // unsorted wide
			for i := range vs {
				vs[i] = int64(rng.Uint64())
			}
		},
		func(vs []int64) { // mixed widths
			for i := range vs {
				vs[i] = int64(rng.Uint64()) >> uint(rng.Intn(64))
			}
		},
	}
	for _, fill := range shapes {
		for trial := 0; trial < 10000/3+1; trial++ {
			vs := make([]int64, rng.Intn(40))
			fill(vs)
			buf := AppendDelta(nil, vs)
			switch rng.Intn(4) {
			case 0: // as encoded
			case 1: // truncated
				buf = buf[:rng.Intn(len(buf)+1)]
			case 2: // trailing bytes
				buf = append(buf, rep(byte(rng.Intn(256)), rng.Intn(12))...)
			case 3: // a flipped byte: continuation bits appear and vanish
				if len(buf) > 0 {
					buf[rng.Intn(len(buf))] ^= byte(1 << uint(rng.Intn(8)))
				}
			}
			sameAsReference(t, len(vs)+rng.Intn(2), buf)
		}
	}
}

// scanAgrees holds ScanDelta, SkipDelta and DecodeDeltaFrom to the reference
// loop on one input: ScanDelta accepts buf as exactly n deltas when, and only
// when, the loop decodes n elements and leaves no byte; and on a frame it
// accepts, every checkpoint is the offset the loop reached, SkipDelta lands
// on every delta boundary, and a decode resumed at any boundary with the
// previous element continues the loop's values.
func scanAgrees(t *testing.T, n int, buf []byte) {
	t.Helper()
	want := make([]int64, n)
	rest, err := decodeDeltaRef(want, buf)
	ok := err == nil && len(rest) == 0
	bounds := []int{0}
	for p := 0; ok && len(bounds) <= n; {
		_, w := binary.Varint(buf[p:])
		p += w
		bounds = append(bounds, p)
	}
	for _, every := range []int{1, 3, 8, 64} {
		offs, err := ScanDelta(buf, n, every)
		if (err == nil) != ok {
			t.Fatalf("n=%d buf=%x every=%d: ScanDelta err %v, reference accepts %v", n, buf, every, err, ok)
		}
		for k, off := range offs {
			if int(off) != bounds[k*every] {
				t.Fatalf("n=%d buf=%x every=%d: checkpoint %d at byte %d, want %d", n, buf, every, k, off, bounds[k*every])
			}
		}
		if ok && len(offs) != (n+every-1)/every {
			t.Fatalf("n=%d every=%d: %d checkpoints", n, every, len(offs))
		}
	}
	for i := 0; ok && i <= n; i++ {
		if got := SkipDelta(buf, i); got != bounds[i] {
			t.Fatalf("n=%d buf=%x: SkipDelta(%d) = %d, want %d", n, buf, i, got, bounds[i])
		}
		prev := int64(0)
		if i > 0 {
			prev = want[i-1]
		}
		got := make([]int64, n-i)
		if rest, err := DecodeDeltaFrom(got, buf[bounds[i]:], prev); err != nil || len(rest) != 0 || !slices.Equal(got, want[i:]) {
			t.Fatalf("n=%d buf=%x: decode from delta %d = %v, %v; want %v", n, buf, i, got, err, want[i:])
		}
	}
}

// TestScanDeltaMatchesReference: ScanDelta accepts exactly the frames the
// reference loop decodes whole — on the kernel's hostile edges, on every
// truncation and every trailing byte of deltas of each width, and on seeded
// random frames, intact, cut, padded and bit-flipped — and on those frames
// the checkpoints, SkipDelta and resumed decodes agree with it.
func TestScanDeltaMatchesReference(t *testing.T) {
	for _, c := range hostileFrames {
		scanAgrees(t, c.n, c.buf)
	}
	for _, d := range []int64{0, -1, 64, 8192, 1 << 27, 1 << 55, math.MaxInt64, math.MinInt64} {
		buf := AppendDelta(nil, []int64{5, d, d + d, 7, 300, 70000, 1, 2, 3})
		for cut := 0; cut <= len(buf); cut++ {
			for _, pad := range [][]byte{nil, {0x00}, {0x80}, rep(0xff, 9)} {
				in := append(slices.Clone(buf[:cut]), pad...)
				scanAgrees(t, 9, in)
				scanAgrees(t, 8, in)
			}
		}
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 3000; trial++ {
		vs := make([]int64, rng.Intn(100))
		v := rng.Int63n(1 << 28)
		for i := range vs {
			v += rng.Int63n(1<<uint(rng.Intn(14))) >> uint(rng.Intn(2)*rng.Intn(64))
			if rng.Intn(20) == 0 {
				v = int64(rng.Uint64())
			}
			vs[i] = v
		}
		buf := AppendDelta(nil, vs)
		switch rng.Intn(4) {
		case 1:
			buf = buf[:rng.Intn(len(buf)+1)]
		case 2:
			buf = append(buf, rep(byte(rng.Intn(256)), rng.Intn(12))...)
		case 3:
			if len(buf) > 0 {
				buf[rng.Intn(len(buf))] ^= byte(1 << uint(rng.Intn(8)))
			}
		}
		scanAgrees(t, max(len(vs)+rng.Intn(3)-1, 0), buf)
	}
}
