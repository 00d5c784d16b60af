// Package radix is the one sort kernel of a step's batch: an LSD radix sort
// of int64 keys, the sort of the level-0 batch at the cut and of the live
// batch's unsorted tail at a read (SortTail), and of the GK baseline's
// insert buffer.
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

// SortTail sorts a whose first sorted keys are ascending already: Sort sorts
// the tail a[sorted:], then one merge pass from the back moves it into place
// through buf. The pass stops once the tail is placed, so it touches only the
// prefix keys above the tail's least: nothing when the tail starts at or above
// the prefix's last key, every key in the worst case. It returns the scratch
// as Sort does.
func SortTail(a []int64, sorted int, buf []int64) []int64 {
	tail := a[sorted:]
	buf = Sort(tail, buf)
	if sorted == 0 || len(tail) == 0 || a[sorted-1] <= tail[0] {
		return buf
	}
	if cap(buf) < len(tail) {
		buf = make([]int64, len(tail))
	}
	t := buf[:copy(buf[:len(tail)], tail)]
	i, k := sorted-1, len(a)-1
	for j := len(t) - 1; j >= 0; k-- {
		if i >= 0 && a[i] > t[j] {
			a[k] = a[i]
			i--
		} else {
			a[k] = t[j]
			j--
		}
	}
	return buf
}
