package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// sampleFrames covers every frame type with representative field values,
// including boundary ints.
func sampleFrames() []*Frame {
	return []*Frame{
		{Type: TypeHello, Version: Version, Session: "f00dcafe"},
		{Type: TypeHello, Version: 7, Session: ""},
		{Type: TypeHello, Version: Version, Session: "relay-1", Flags: HelloFlagRelay},
		{Type: TypeHello, Version: Version, Session: "leaf-9", Flags: HelloFlagRelay | HelloFlagLeaf},
		{Type: TypeWelcome, Version: Version, Credit: 64},
		{Type: TypeWelcome, Version: Version, Credit: 1,
			StreamSeqs: []StreamSeq{{Name: "", Seq: math.MaxUint64}}},
		{Type: TypeWelcome, Version: Version, Credit: 64,
			StreamSeqs: []StreamSeq{{Name: "api.latency", Seq: 7}, {Name: "db.rows", Seq: 3}}},
		{Type: TypeOpenStream, StreamID: 0, Name: "api.latency"},
		{Type: TypeOpenStream, StreamID: 1 << 40, Name: ""},
		{Type: TypeBatch, Seq: 1, StreamID: 3, Values: []int64{1, 2, 3, 4, 5}},
		{Type: TypeBatch, Seq: 2, StreamID: 0, Values: nil},
		{Type: TypeBatch, Seq: 3, StreamID: 9,
			Values: []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MaxInt64, math.MinInt64}},
		{Type: TypeEndStep, Seq: 17, StreamID: 2},
		{Type: TypeEndStep, Seq: math.MaxUint64, StreamID: 1 << 40},
		{Type: TypeHello, Version: 1, Session: "before-v3"},
		{Type: TypeError, Code: ErrCodeShutdown, Message: "server shutting down"},
		{Type: TypeError, Code: ErrCodeProtocol, Message: ""},
		{Type: TypePing, Seq: 5},
		{Type: TypePong, Seq: 5},
		{Type: TypePing, Seq: math.MaxUint64},
		{Type: TypeSummaryReq, Seq: 11, Name: "api.latency"},
		{Type: TypeSummaryReq, Seq: 0, Name: ""},
		{Type: TypeSummaryResp, Seq: 11, Code: 0, Data: []byte{0x01, 0x00, 0xfe}},
		{Type: TypeSummaryResp, Seq: 12, Code: ErrCodeStream, Message: "unknown stream", Data: nil},
		{Type: TypeSubscribe, StreamID: 1, Credit: 256, Data: []byte(`{"match":"api.*","phis":[0.99]}`)},
		{Type: TypeSubscribe, StreamID: 1 << 33, Credit: 0, Data: nil},
		{Type: TypeUnsubscribe, StreamID: 1},
		{Type: TypeUnsubscribe, StreamID: math.MaxUint64},
		{Type: TypePush, StreamID: 1, Seq: 4, Data: []byte(`{"groups":[]}`)},
		{Type: TypePush, StreamID: 2, Seq: 1, Code: ErrCodePlan, Message: "plan selects no streams"},
	}
}

// TestFrameRoundTrip encodes every sample frame through a Writer and reads
// it back, field for field.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	frames := sampleFrames()
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatalf("write %s: %v", f, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for _, want := range frames {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("read (want %s): %v", want, err)
		}
		// nil vs empty Values both mean "no values".
		if len(got.Values) == 0 && len(want.Values) == 0 {
			got.Values, want.Values = nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip:\n got %#v\nwant %#v", got, want)
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Errorf("after last frame: got %v, want io.EOF", err)
	}
}

// TestValuesRoundTrip drives the delta+zig-zag batch encoding with random
// and adversarial value sequences, including wraparound deltas.
func TestValuesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]int64{
		{},
		{0},
		{math.MinInt64},
		{math.MaxInt64, math.MinInt64, math.MaxInt64},
		{-5, -4, -3, 0, 3, 4, 5},
	}
	for i := 0; i < 50; i++ {
		n := rng.Intn(200)
		vs := make([]int64, n)
		for j := range vs {
			switch rng.Intn(3) {
			case 0:
				vs[j] = rng.Int63() - rng.Int63()
			case 1:
				vs[j] = int64(rng.Intn(100)) // small, clustered
			default:
				vs[j] = math.MinInt64 + rng.Int63() // near the bottom
			}
		}
		cases = append(cases, vs)
	}
	for _, vs := range cases {
		f := &Frame{Type: TypeBatch, Seq: 1, StreamID: 1, Values: vs}
		enc, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewReader(bytes.NewReader(enc)).ReadFrame()
		if err != nil {
			t.Fatalf("decode batch of %d: %v", len(vs), err)
		}
		if len(got.Values) != len(vs) {
			t.Fatalf("decoded %d values, want %d", len(got.Values), len(vs))
		}
		for j := range vs {
			if got.Values[j] != vs[j] {
				t.Fatalf("value %d: got %d, want %d", j, got.Values[j], vs[j])
			}
		}
	}
}

// TestDeltaEncodingIsCompact pins the point of the encoding: a sorted
// small-delta batch costs ~1 byte per element, not 8.
func TestDeltaEncodingIsCompact(t *testing.T) {
	vs := make([]int64, 1000)
	for i := range vs {
		vs[i] = 1_000_000 + int64(i)*3
	}
	enc := AppendValues(nil, vs)
	if len(enc) > 2*len(vs) {
		t.Errorf("sorted batch encoded to %d bytes for %d values; want ≤ 2 B/value", len(enc), len(vs))
	}
}

// TestDecodeRejects pins the decoder's defenses: trailing bytes, bad
// magic, oversized declared lengths, unknown types (the retired Flush and
// Ack codes among them), truncated payloads.
func TestDecodeRejects(t *testing.T) {
	ok, err := AppendFrame(nil, &Frame{Type: TypeEndStep, Seq: 1, StreamID: 2})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("trailing-bytes", func(t *testing.T) {
		if _, err := DecodeFrame(TypeEndStep, append([]byte{1, 2}, 0xff)); err == nil {
			t.Error("trailing bytes accepted")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		f := &Frame{Type: TypeHello, Version: Version, Session: "s"}
		enc, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		enc[2] = 'X' // corrupt magic inside the payload
		if _, err := NewReader(bytes.NewReader(enc)).ReadFrame(); err == nil {
			t.Error("bad magic accepted")
		}
	})
	t.Run("oversized-length", func(t *testing.T) {
		// type + uvarint length far beyond MaxFrameSize, no payload.
		raw := []byte{TypeBatch, 0xff, 0xff, 0xff, 0xff, 0x7f}
		_, err := NewReader(bytes.NewReader(raw)).ReadFrame()
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("got %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("unknown-type", func(t *testing.T) {
		for _, typ := range []byte{0x06, 0x07, 0x7f} {
			raw := append([]byte{typ}, ok[1:]...)
			_, err := NewReader(bytes.NewReader(raw)).ReadFrame()
			if err == nil || !strings.Contains(err.Error(), "unknown frame type") {
				t.Errorf("type %#x: got %v, want an unknown-type error", typ, err)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(ok); cut++ {
			if _, err := NewReader(bytes.NewReader(ok[:cut])).ReadFrame(); err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("batch-count-lies", func(t *testing.T) {
		// Declares 1000 values but carries none: must fail before
		// allocating them.
		payload := []byte{1 /*seq*/, 1 /*stream*/, 0xe8, 0x07 /*count=1000*/}
		if _, err := DecodeFrame(TypeBatch, payload); err == nil {
			t.Error("lying batch count accepted")
		}
	})
}

// TestSplitBatch checks the splitter keeps every chunk's worst-case
// encoding under the frame limit and loses no values.
func TestSplitBatch(t *testing.T) {
	n := (MaxFrameSize/10)*2 + 123
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(i) * math.MaxInt32
	}
	var back []int64
	for _, chunk := range SplitBatch(vs) {
		enc, err := AppendFrame(nil, &Frame{Type: TypeBatch, Seq: 1, StreamID: 1, Values: chunk})
		if err != nil {
			t.Fatalf("chunk of %d: %v", len(chunk), err)
		}
		if len(enc) > MaxFrameSize+16 {
			t.Fatalf("chunk encodes to %d bytes", len(enc))
		}
		back = append(back, chunk...)
	}
	if !reflect.DeepEqual(back, vs) {
		t.Fatal("split chunks do not reassemble the input")
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder: it must
// reject or accept without panicking or over-allocating, and anything it
// accepts must re-encode to a frame that decodes identically (decode ∘
// encode ∘ decode = decode).
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		enc, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{TypeBatch, 0x03, 0x01, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for {
			fr, err := r.ReadFrame()
			if err != nil {
				return
			}
			enc, err := AppendFrame(nil, fr)
			if err != nil {
				t.Fatalf("decoded frame %s does not re-encode: %v", fr, err)
			}
			again, err := NewReader(bytes.NewReader(enc)).ReadFrame()
			if err != nil {
				t.Fatalf("re-encoded frame %s does not decode: %v", fr, err)
			}
			if again.String() != fr.String() {
				t.Fatalf("re-decode drift: %s vs %s", fr, again)
			}
		}
	})
}

// FuzzValuesRoundTrip fuzzes the batch value codec with structured input:
// the raw bytes are reinterpreted as int64s and must round-trip exactly.
func FuzzValuesRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := make([]int64, len(data)/8)
		for i := range vs {
			v := int64(0)
			for j := 0; j < 8; j++ {
				v = v<<8 | int64(data[i*8+j])
			}
			vs[i] = v
		}
		fr := &Frame{Type: TypeBatch, Seq: 1, StreamID: 1, Values: vs}
		enc, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewReader(bytes.NewReader(enc)).ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Values) != len(vs) {
			t.Fatalf("got %d values, want %d", len(got.Values), len(vs))
		}
		for i := range vs {
			if got.Values[i] != vs[i] {
				t.Fatalf("value %d: got %d, want %d", i, got.Values[i], vs[i])
			}
		}
	})
}
