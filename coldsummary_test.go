package hsq

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// sidecarFixture is a stream's worth of partition summaries: parts sorted
// runs of per values each.
func sidecarFixture(parts, per int) []sidecarPart {
	rng := rand.New(rand.NewSource(3))
	out := make([]sidecarPart, parts)
	for i := range out {
		vs := make([]int64, per)
		for j := range vs {
			vs[j] = rng.Int63n(1 << 30)
		}
		slices.Sort(vs)
		out[i] = sidecarPart{Count: int64(per) * 10, StartStep: i + 1, EndStep: i + 1, Values: vs}
	}
	return out
}

func TestSidecarRoundTrip(t *testing.T) {
	parts := sidecarFixture(5, 40)
	parts[2].Values = nil // an empty summary decodes to nil
	raw := encodeSidecar(parts, 5, 2000)
	got, steps, total, err := decodeSidecar(raw)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 5 || total != 2000 || !reflect.DeepEqual(got, parts) {
		t.Fatalf("round trip: steps=%d total=%d parts=%+v", steps, total, got)
	}
	// Truncation anywhere, trailing bytes and a lying length must error —
	// the last before anything is allocated for it.
	for cut := 0; cut < len(raw); cut++ {
		if _, _, _, err := decodeSidecar(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, _, err := decodeSidecar(append(slices.Clone(raw), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	lying := []byte{sidecarVersion, 1, 1}
	lying = binary.AppendUvarint(lying, 1)     // one part
	lying = append(lying, 1, 1, 1)             // count, start, end
	lying = binary.AppendUvarint(lying, 1<<40) // a terabyte of values, it says
	if _, _, _, err := decodeSidecar(lying); err == nil {
		t.Error("lying length accepted")
	}
	if parts, steps, total, err := decodeSidecar(encodeSidecar(nil, 0, 0)); err != nil || parts != nil || steps != 0 || total != 0 {
		t.Errorf("empty sidecar = %v, %d, %d, %v", parts, steps, total, err)
	}
}

// BenchmarkDecodeSidecar is one cold stream's read on the fleet plan: ~22
// partition summaries of β₁ = 2001 values.
func BenchmarkDecodeSidecar(b *testing.B) {
	raw := encodeSidecar(sidecarFixture(22, 2001), 22, 22*20010)
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		if _, _, _, err := decodeSidecar(raw); err != nil {
			b.Fatal(err)
		}
	}
}
