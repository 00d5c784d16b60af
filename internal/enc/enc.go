// Package enc holds the delta + zig-zag varint codec shared by the wire
// protocol (internal/wire batch frames) and the columnar block format
// (internal/disk format 1). Sorted or slowly-varying int64 runs encode at
// 1-2 bytes per element instead of 8; arbitrary values still round-trip
// because the deltas use wrapping two's-complement arithmetic. Reader is the
// bounded, error-latching cursor core.DecodeShardSummary reads a shard
// summary — a peer's reply or a cold-summary sidecar, one encoding — with.
//
// DecodeDelta (DecodeDeltaFrom, resumed mid-frame) is the one decoder of that
// encoding. Its contract is binary.Varint's, element by element: it
// accepts and rejects exactly the byte strings a loop of binary.Varint calls
// does (truncation, an eleventh byte, a tenth byte above 1; non-canonical
// encodings such as 0x80 0x00 are accepted, as there) and returns the same
// values, the same remainder and the same error. enc_test.go keeps that loop
// as decodeDeltaRef and holds the two together. ScanDelta checks a whole
// frame against the same contract without decoding it, recording where
// every so many deltas start: how a random read checks a block of a
// columnar version-1 file, which carries no checksum and no checkpoints.
// SkipDelta steps over deltas from such a checkpoint, so a random block
// read decodes (DecodeDeltaFrom) only the run a probe needs.
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
func DecodeDelta(dst []int64, buf []byte) (rest []byte, err error) {
	return DecodeDeltaFrom(dst, buf, 0)
}

// DecodeDeltaFrom is DecodeDelta resumed inside a frame: buf starts at a
// delta boundary and prev is the value of the element before it.
//
// While eight whole bytes remain, a delta of one or two bytes — a sorted
// partition block is made of little else — is decoded without a branch on its
// length, and one of three to eight bytes from a single 64-bit load; nine- and
// ten-byte deltas, the only ones that can overflow, and the last seven bytes
// of buf go through binary.Varint, which carries every check.
func DecodeDeltaFrom(dst []int64, buf []byte, prev int64) (rest []byte, err error) {
	p := 0 // every add to prev below wraps; see AppendDelta
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
			if stop := ^x & stopBits; stop != 0 {
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

// stopBits holds the continuation bit of each byte of a 64-bit word; a byte
// whose bit is clear ends a varint.
const stopBits = 0x8080808080808080

// overlong reports whether a varint whose last byte is b, behind run
// continuation bytes, is one binary.Varint refuses: an eleventh byte, or a
// tenth above 1.
func overlong(run int, b byte) bool {
	return run > MaxVarintLen64-1 || run == MaxVarintLen64-1 && b > 1
}

// ScanDelta checks that frame is exactly count deltas — it accepts what
// DecodeDelta into count elements followed by a check for trailing bytes
// accepts, and nothing else — without decoding one: it counts the bytes that
// end a varint, eight at a time. On the way it records the byte offset of
// every every-th delta (0, every, 2·every, …; every > 0): the checkpoints
// SkipDelta starts from.
func ScanDelta(frame []byte, count, every int) (offs []int32, err error) {
	if count > 0 {
		offs = make([]int32, (count+every-1)/every)
	}
	k, next := 1, every // offs[k] is the offset of delta next, recorded next
	n, run, p := 0, 0, 0
	for ; p+8 <= len(frame); p += 8 {
		stop := ^binary.LittleEndian.Uint64(frame[p:]) & stopBits
		if stop == 0 {
			run += 8
			continue
		}
		// Only the word's first varint end can follow nine or more
		// continuation bytes; the rest follow at most six.
		if first := bits.TrailingZeros64(stop) >> 3; run+first >= MaxVarintLen64-1 && overlong(run+first, frame[p+first]) {
			return nil, fmt.Errorf("enc: bad varint at element %d", n)
		}
		c := bits.OnesCount64(stop)
		for ; k < len(offs) && next <= n+c; k, next = k+1, next+every {
			s := stop
			for j := next - n; j > 1; j-- {
				s &= s - 1
			}
			offs[k] = int32(p + bits.TrailingZeros64(s)>>3 + 1)
		}
		n += c
		run = bits.LeadingZeros64(stop) >> 3
	}
	for ; p < len(frame); p++ {
		if frame[p] >= 0x80 {
			run++
			continue
		}
		if overlong(run, frame[p]) {
			return nil, fmt.Errorf("enc: bad varint at element %d", n)
		}
		if n, run = n+1, 0; k < len(offs) && n == next {
			offs[k] = int32(p + 1)
			k, next = k+1, next+every
		}
	}
	if run != 0 || n != count {
		return nil, fmt.Errorf("enc: frame of %d bytes holds %d whole deltas, want exactly %d", len(frame), n, count)
	}
	return offs, nil
}

// SkipDelta returns the byte offset in buf just past its first n deltas,
// counting varint ends eight bytes at a time, or len(buf) when buf ends
// before n of them do; decoding from there then fails as a truncation.
func SkipDelta(buf []byte, n int) int {
	p := 0
	for ; n > 0 && p+8 <= len(buf); p += 8 {
		stop := ^binary.LittleEndian.Uint64(buf[p:]) & stopBits
		if c := bits.OnesCount64(stop); c < n {
			n -= c
			continue
		}
		for ; n > 1; n-- {
			stop &= stop - 1
		}
		return p + bits.TrailingZeros64(stop)>>3 + 1
	}
	for ; n > 0 && p < len(buf); p++ {
		if buf[p] < 0x80 {
			n--
		}
	}
	return p
}
