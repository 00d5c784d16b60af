// Package enc holds the delta + zig-zag varint codec shared by the wire
// protocol (internal/wire batch frames) and the columnar block format
// (internal/disk format 1). Sorted or slowly-varying int64 runs encode at
// 1-2 bytes per element instead of 8; arbitrary values still round-trip
// because the deltas use wrapping two's-complement arithmetic. Reader is the
// bounded, error-latching cursor the metadata decoders (shard summaries,
// cold-summary sidecars) read such payloads with.
package enc

import (
	"encoding/binary"
	"fmt"
)

// MaxVarintLen64 is the widest encoding of one delta (re-exported so callers
// can size worst-case buffers without importing encoding/binary).
const MaxVarintLen64 = binary.MaxVarintLen64

// AppendDelta appends the delta + zig-zag varint encoding of vs to buf and
// returns the extended slice. The first element is encoded relative to zero.
func AppendDelta(buf []byte, vs []int64) []byte {
	prev := int64(0)
	for _, v := range vs {
		// Wrapping subtraction: two's-complement wraparound round-trips
		// through the matching wrapping add in DecodeDelta, so the full
		// int64 range is representable.
		buf = binary.AppendVarint(buf, v-prev)
		prev = v
	}
	return buf
}

// DecodeDelta decodes len(dst) delta-encoded elements from buf into dst and
// returns the unconsumed remainder of buf. It fails if buf is truncated or a
// varint is malformed.
func DecodeDelta(dst []int64, buf []byte) (rest []byte, err error) {
	prev := int64(0)
	for i := range dst {
		d, n := binary.Varint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("enc: bad varint at element %d", i)
		}
		buf = buf[n:]
		prev += d // wrapping add; see AppendDelta
		dst[i] = prev
	}
	return buf, nil
}
