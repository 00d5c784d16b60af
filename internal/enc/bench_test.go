package enc

import (
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"repro/internal/workload"
)

type benchFrame struct {
	name string
	vals []int64
}

// benchFrames are the three shapes DecodeDelta meets: the sorted partition
// block a cold query decodes, the unsorted wire batch ingest decodes, and
// full-width deltas no real frame is made of.
func benchFrames() []benchFrame {
	// A partition block is a 57 000-value window of a longer sorted run:
	// mixed one- and two-byte deltas at ~1.75 B/value.
	run := workload.Fill(workload.NewNormal(1), 2*57000)
	slices.Sort(run)
	near := run[57000/2 : 57000/2+57000]
	wire := workload.Fill(workload.NewNormal(2), 8192)
	wide := make([]int64, 8192)
	for i := range wide {
		// Every delta of this cycle is ten bytes.
		wide[i] = [...]int64{0, math.MaxInt64, -1, math.MinInt64}[i%4]
	}
	return []benchFrame{{"sorted-near", near}, {"wire-unsorted", wire}, {"wide", wide}}
}

var benchSink []byte

// BenchmarkDecodeDelta times the kernel against the loop it replaced
// (decodeDeltaRef, the /reference twin) on each shape.
func BenchmarkDecodeDelta(b *testing.B) {
	for _, fr := range benchFrames() {
		buf := AppendDelta(nil, fr.vals)
		dst := make([]int64, len(fr.vals))
		for _, k := range []struct {
			name   string
			decode func([]int64, []byte) ([]byte, error)
		}{{fr.name, DecodeDelta}, {fr.name + "/reference", decodeDeltaRef}} {
			b.Run(k.name, func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rest, err := k.decode(dst, buf)
					if err != nil || len(rest) != 0 {
						b.Fatalf("decode: %v, %d bytes left", err, len(rest))
					}
					benchSink = rest
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/value")
				b.ReportMetric(float64(len(buf))/float64(len(dst)), "B/value")
			})
		}
	}
}

var benchCRC uint32

// BenchmarkColdProbe times the costs of a cold probe on the partition block:
// checking the frame by its CRC-32C, as a columnar block read does (crc),
// and decoding the run of one 200-value summary gap from the checkpoint
// before it (window), beside the whole-block decode a probe paid before
// (full).
func BenchmarkColdProbe(b *testing.B) {
	vals := benchFrames()[0].vals
	buf := AppendDelta(nil, vals)
	from := len(vals) / 3
	ck := SkipDelta(buf, from/256*256) // the checkpoint before the run
	win := make([]int64, 200)
	b.Run("crc", func(b *testing.B) {
		table := crc32.MakeTable(crc32.Castagnoli)
		for i := 0; i < b.N; i++ {
			benchCRC = crc32.Checksum(buf, table)
		}
	})
	b.Run("window", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			off := ck + SkipDelta(buf[ck:], from%256)
			if _, err := DecodeDeltaFrom(win, buf[off:], vals[from-1]); err != nil || win[0] != vals[from] {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		dst := make([]int64, len(vals))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeDelta(dst, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
