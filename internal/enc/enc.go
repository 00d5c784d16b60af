// Package enc holds the delta + zig-zag varint codec shared by the wire
// protocol (internal/wire batch frames) and the columnar block format
// (internal/disk format 1). Sorted or slowly-varying int64 runs encode at
// 1-2 bytes per element instead of 8; arbitrary values still round-trip
// because the deltas use wrapping two's-complement arithmetic. Reader is the
// bounded, error-latching cursor core.DecodeShardSummary reads a shard
// summary — a peer's reply or a cold-summary sidecar, one encoding — with.
//
// DecodeDelta is the one decoder of that encoding and the hot loop of every
// cold block read. Its contract is binary.Varint's, element by element: it
// accepts and rejects exactly the byte strings a loop of binary.Varint calls
// does (truncation, an eleventh byte, a tenth byte above 1; non-canonical
// encodings such as 0x80 0x00 are accepted, as there) and returns the same
// values, the same remainder and the same error. enc_test.go keeps that loop
// as decodeDeltaRef and holds the two together.
package enc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
//
// While eight whole bytes remain, a delta of one or two bytes — a sorted
// partition block is made of little else — is decoded without a branch on its
// length, and one of three to eight bytes from a single 64-bit load; nine- and
// ten-byte deltas, the only ones that can overflow, and the last seven bytes
// of buf go through binary.Varint, which carries every check.
func DecodeDelta(dst []int64, buf []byte) (rest []byte, err error) {
	prev := int64(0) // every add below wraps; see AppendDelta
	p := 0
	for i := range dst {
		if uint(p)+7 < uint(len(buf)) {
			b0, b1 := uint64(buf[p]), uint64(buf[p+1])
			if b0&b1 < 0x80 {
				more := b0 >> 7 // 1 when b1 belongs to this delta
				u := b0&0x7f | (b1&-more)<<7
				prev += int64(u>>1) ^ -int64(u&1)
				dst[i] = prev
				p += 1 + int(more)
				continue
			}
			x := binary.LittleEndian.Uint64(buf[p:])
			if stop := ^x & 0x8080808080808080; stop != 0 {
				k := bits.TrailingZeros64(stop) // top bit of the delta's last byte
				x &= ^uint64(0) >> (63 - k)
				// Close the gaps the continuation bits leave: 8 groups of 7
				// bits, then 4 of 14, then 2 of 28.
				x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
				x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
				x = x&0x000000000fffffff | x&0x0fffffff00000000>>4
				prev += int64(x>>1) ^ -int64(x&1)
				dst[i] = prev
				p += (k + 1) >> 3
				continue
			}
		}
		d, n := binary.Varint(buf[p:])
		if n <= 0 {
			return nil, fmt.Errorf("enc: bad varint at element %d", i)
		}
		p += n
		prev += d
		dst[i] = prev
	}
	return buf[p:], nil
}
