// Package gk implements the Greenwald-Khanna space-efficient online quantile
// summary (SIGMOD 2001): the paper's stream summary, its strongest
// pure-streaming baseline, and the model behind Lemma 9's stream memory
// bound. The product does not run it: hsq keeps the live step raw, because
// EndStep writes it, and counts it exactly from its sorted run
// (core.StreamPiece). The figures' baselines (internal/experiments),
// examples/compare and the benchmark's layer measurements run it.
//
// The sketch maintains an ordered list of tuples (v, g, Δ) where
// rmin(i) = Σ_{j≤i} g_j and rmax(i) = rmin(i) + Δ_i bound the rank of v_i.
// The invariant g_i + Δ_i ≤ ⌊2εn⌋ guarantees that any rank query can be
// answered within ±εn. Compression uses the banded merge rule from the
// original paper, giving the deterministic worst-case O((1/ε)·log(εn)) space
// bound quoted as Theorem 1.
//
// Note on sidedness: the paper states Theorem 1 with a one-sided guarantee
// (returned rank in [r, r+εm]). Classic GK is two-sided (±εm), so a stream
// summary built from it runs GK at ε/2 and offsets query ranks by εm/2,
// which restores exactly the band [i·εm, (i+1)·εm] of Lemma 1.
//
// A Sketch has one writer and no lock of its own: its owner serializes the
// writes and the reads beside them (reads flush the insert buffer).
package gk

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/radix"
)

// tuple is one summary entry. g is the gap rmin(i) - rmin(i-1); delta is
// rmax(i) - rmin(i).
type tuple struct {
	v     int64
	g     int64
	delta int64
}

// Sketch is a Greenwald-Khanna ε-approximate quantile summary. The zero
// value is not usable; construct with New. A Sketch is not safe for
// concurrent use, and reads are no exception: every read that needs the
// tuple list first flushes the insert buffer into it. Its owner guards it —
// in hsq, the engine lock of the stream that keeps it.
type Sketch struct {
	eps    float64
	n      int64 // includes buffered-but-unmerged elements
	tuples []tuple
	// pending buffers recent inserts; they are sorted (sortBuf is the
	// kernel's scratch) and merged into the tuple list in one pass when the
	// buffer fills (or before any query).
	// So every 1/(2ε) inserts cost one sort of the buffer, one merge pass
	// and one compress pass, each linear in tuples + buffer. The invariant
	// is not weakened: each buffered element is merged with the same g=1,
	// Δ=⌊2εn⌋−1 it would have received individually (n only grows while
	// it waits, so the invariant bound only loosens).
	pending    []int64
	sortBuf    []int64
	flushEvery int
	// scratch is the spare tuple buffer flush merges into; it swaps roles
	// with tuples on every flush so steady-state insertion allocates
	// nothing once both buffers have grown to the working-set size.
	scratch []tuple
	// maxTuples is the tuple list's high-water mark (MaxTupleCount).
	maxTuples int
}

// New returns an empty sketch with error parameter eps in (0, 1).
func New(eps float64) (*Sketch, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("gk: eps must be in (0,1), got %g", eps)
	}
	every := int(1.0 / (2.0 * eps))
	if every < 1 {
		every = 1
	}
	return &Sketch{eps: eps, flushEvery: every}, nil
}

// MustNew is New that panics on invalid eps; for tests and examples where
// eps is a compile-time constant.
func MustNew(eps float64) *Sketch {
	s, err := New(eps)
	if err != nil {
		panic(err)
	}
	return s
}

// Epsilon returns the error parameter.
func (s *Sketch) Epsilon() float64 { return s.eps }

// Count returns the number of elements inserted.
func (s *Sketch) Count() int64 { return s.n }

// TupleCount returns the current number of summary tuples (after merging
// any buffered inserts).
func (s *Sketch) TupleCount() int {
	s.flush()
	return len(s.tuples)
}

// MaxTupleCount returns the high-water mark of the tuple list.
func (s *Sketch) MaxTupleCount() int { return s.maxTuples }

// MemoryBytes estimates the live memory footprint of the summary: every
// buffer it holds, at capacity — 24 bytes a tuple slot, 8 an int64 slot.
func (s *Sketch) MemoryBytes() int64 {
	return int64(cap(s.tuples)+cap(s.scratch))*24 + int64(cap(s.pending)+cap(s.sortBuf))*8
}

// Reset empties the sketch, keeping its parameters. Used at the end of each
// time step when the batch is loaded into the warehouse (StreamReset,
// Algorithm 4).
func (s *Sketch) Reset() {
	s.n = 0
	s.tuples = s.tuples[:0]
	s.pending = s.pending[:0]
}

// Insert adds one element to the summary.
func (s *Sketch) Insert(v int64) {
	s.pending = append(s.pending, v)
	s.n++
	if len(s.pending) >= s.flushEvery {
		s.flush()
	}
}

// flush merges the pending buffer into the tuple list and compresses it.
func (s *Sketch) flush() {
	if len(s.pending) == 0 {
		return
	}
	s.merge()
	s.compress()
}

// merge sorts the pending buffer and merges it into the tuple list in one
// pass, emptying the buffer.
func (s *Sketch) merge() {
	s.sortBuf = radix.Sort(s.pending, s.sortBuf)
	cap2 := int64(2 * s.eps * float64(s.n))
	midDelta := cap2 - 1
	if midDelta < 0 {
		midDelta = 0
	}
	merged := s.scratch[:0]
	if need := len(s.tuples) + len(s.pending); cap(merged) < need {
		merged = make([]tuple, 0, need)
	}
	ti, pi := 0, 0
	for ti < len(s.tuples) || pi < len(s.pending) {
		if pi >= len(s.pending) || (ti < len(s.tuples) && s.tuples[ti].v < s.pending[pi]) {
			merged = append(merged, s.tuples[ti])
			ti++
			continue
		}
		v := s.pending[pi]
		pi++
		delta := midDelta
		// A new global minimum (first merged element) or maximum (last
		// merged element overall) is known exactly; interior positions get
		// the standard Δ.
		if len(merged) == 0 || (ti >= len(s.tuples) && pi == len(s.pending)) {
			delta = 0
		}
		merged = append(merged, tuple{v: v, g: 1, delta: delta})
	}
	s.scratch = s.tuples[:0] // retired buffer becomes next flush's target
	s.tuples = merged
	s.pending = s.pending[:0]
	if len(s.tuples) > s.maxTuples {
		s.maxTuples = len(s.tuples)
	}
}

// band computes the compression band of a tuple's delta given the current
// capacity p = ⌊2εn⌋. Tuples in lower bands (older, more certain) must not
// absorb tuples from higher bands.
func band(delta, p int64) int64 {
	if delta == p {
		return -1 // brand-new tuples form their own lowest band
	}
	diff := p - delta + 1
	if diff <= 1 {
		return 0
	}
	return int64(bits.Len64(uint64(diff)) - 1) // floor(log2(diff))
}

// compress merges adjacent tuples whose combined uncertainty fits within the
// invariant g_i + g_{i+1} + Δ_{i+1} ≤ ⌊2εn⌋, respecting band order. One
// right-to-left sweep tests each tuple i against the nearest survivor on its
// right, tuples[w], and packs the survivors into tuples[w:] (w > i, so no
// unread tuple is overwritten); one copy then moves them to the front. The
// first and last tuples (exact min and max) are never removed.
func (s *Sketch) compress() {
	if len(s.tuples) < 3 {
		return
	}
	p := int64(2 * s.eps * float64(s.n))
	w := len(s.tuples) - 1
	for i := w - 1; i >= 1; i-- {
		t, next := s.tuples[i], &s.tuples[w]
		if band(t.delta, p) <= band(next.delta, p) && t.g+next.g+next.delta <= p {
			next.g += t.g
		} else {
			w--
			s.tuples[w] = t
		}
	}
	w--
	s.tuples[w] = s.tuples[0]
	s.tuples = s.tuples[:copy(s.tuples, s.tuples[w:])]
}

// Query returns a value whose rank in the stream is within ±εn of r.
// r is clamped to [1, n]. Query on an empty sketch returns ok=false.
func (s *Sketch) Query(r int64) (int64, bool) {
	s.flush()
	if len(s.tuples) == 0 {
		return 0, false
	}
	if r < 1 {
		r = 1
	}
	if r > s.n {
		r = s.n
	}
	e := int64(math.Ceil(s.eps * float64(s.n)))
	rmin := int64(0)
	for i := range s.tuples {
		rmin += s.tuples[i].g
		rmax := rmin + s.tuples[i].delta
		if rmax > r+e {
			if i == 0 {
				return s.tuples[0].v, true
			}
			return s.tuples[i-1].v, true
		}
	}
	return s.tuples[len(s.tuples)-1].v, true
}

// Quantile returns an element approximating the φ-quantile (smallest element
// with rank ≥ ⌈φn⌉), within ±εn rank error.
func (s *Sketch) Quantile(phi float64) (int64, bool) {
	if s.n == 0 {
		return 0, false
	}
	return s.Query(int64(math.Ceil(phi * float64(s.n))))
}

// Min returns the exact minimum seen so far.
func (s *Sketch) Min() (int64, bool) {
	s.flush()
	if len(s.tuples) == 0 {
		return 0, false
	}
	return s.tuples[0].v, true
}

// Max returns the exact maximum seen so far.
func (s *Sketch) Max() (int64, bool) {
	s.flush()
	if len(s.tuples) == 0 {
		return 0, false
	}
	return s.tuples[len(s.tuples)-1].v, true
}

// RankBounds returns lower and upper bounds on the rank of v in the stream
// (number of elements ≤ v), derived from the summary invariants.
func (s *Sketch) RankBounds(v int64) (lo, hi int64) {
	s.flush()
	if len(s.tuples) == 0 {
		return 0, 0
	}
	rmin := int64(0)
	var prevRmin, prevRmax int64
	for i := range s.tuples {
		rmin += s.tuples[i].g
		rmax := rmin + s.tuples[i].delta
		if s.tuples[i].v > v {
			if i == 0 {
				return 0, 0
			}
			return prevRmin, prevRmax
		}
		prevRmin, prevRmax = rmin, rmax
	}
	return s.n, s.n
}

// RankEstimate returns a point estimate of the rank of v (midpoint of the
// bounds).
func (s *Sketch) RankEstimate(v int64) int64 {
	lo, hi := s.RankBounds(v)
	return (lo + hi) / 2
}

// checkInvariant verifies g_i + Δ_i ≤ ⌊2εn⌋ + 1 for all tuples and that
// values are sorted; used by tests.
func (s *Sketch) checkInvariant() error {
	s.flush()
	p := int64(2*s.eps*float64(s.n)) + 1
	total := int64(0)
	for i := range s.tuples {
		t := s.tuples[i]
		if i > 0 && t.v < s.tuples[i-1].v {
			return fmt.Errorf("gk: tuples out of order at %d", i)
		}
		if t.g+t.delta > p {
			return fmt.Errorf("gk: invariant violated at %d: g+delta=%d > %d", i, t.g+t.delta, p)
		}
		total += t.g
	}
	if total != s.n {
		return fmt.Errorf("gk: gap sum %d != n %d", total, s.n)
	}
	return nil
}
