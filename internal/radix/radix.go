// Package radix is the one sort kernel of a step's batch: an LSD radix sort
// of int64 keys, the sort of the live step's new values when a read or the
// cut folds them into its sorted run, and of the GK baseline's insert
// buffer.
//
// Each key is read as its sign-flipped uint64, which orders like the int64,
// in eight 8-bit digits. One counting pass fills all eight histograms; a
// digit every key shares is skipped, so keys below 2³⁰ cost four scatter
// passes, whatever their sign-flipped top bytes. Input already sorted
// either way returns after a comparison pass (reversed in place if it
// descends), and short input goes to slices.Sort, which beats the
// histograms' fixed cost there. The order is the int64 order and equal keys
// are indistinguishable, so the result is element for element the one
// slices.Sort gives.
package radix

import (
	"cmp"
	"slices"
)

// Cutoff is the length below which Sort hands the slice to slices.Sort.
const Cutoff = 256

// Sort sorts a in ascending order, using buf as scratch, and returns the
// scratch — grown to len(a) if it was shorter — for the caller to pass to
// its next Sort. The contents of buf are overwritten.
func Sort(a, buf []int64) []int64 {
	if len(a) < Cutoff {
		slices.Sort(a)
		return buf
	}
	if slices.IsSorted(a) {
		return buf
	}
	if slices.IsSortedFunc(a, func(x, y int64) int { return cmp.Compare(y, x) }) {
		slices.Reverse(a)
		return buf
	}
	if cap(buf) < len(a) {
		buf = make([]int64, len(a))
	}
	// int counts hold any slice length.
	var counts [8][256]int
	for _, v := range a {
		k := uint64(v) ^ 1<<63
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	src, dst := a, buf[:len(a)]
	first := uint64(a[0]) ^ 1<<63
	for d := range counts {
		shift := uint(8 * d)
		c := &counts[d]
		if c[byte(first>>shift)] == len(a) {
			continue // every key shares this digit
		}
		sum := 0
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, v := range src {
			b := byte((uint64(v) ^ 1<<63) >> shift)
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
	return buf
}
