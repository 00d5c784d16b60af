package main

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// rateSlices is the number of equal-work slices a phase is cut into; a
// phase's rate is the median of the slices' rates, so one stalled stretch
// (a neighbour's burst on the shared sandbox) moves one slice, not the
// result.
const rateSlices = 8

// warmupShare is the leading share of a phase's operations whose latencies
// are dropped: connection set-up, first-touch page faults and cold branch
// predictors belong to the set-up, not to the steady state a user sees.
const warmupShare = 0.05

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// steady drops the warm-up prefix of a latency series.
func steady(xs []float64) []float64 {
	return xs[int(float64(len(xs))*warmupShare):]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// opTime is one closed-loop operation on the generator's clock.
type opTime struct {
	start, end time.Time
	work       float64 // units completed by the op (values, queries)
}

// sliceBounds cuts n ops into rateSlices runs of equal op count (fewer
// when there are fewer ops) and returns each run's [lo, hi).
func sliceBounds(n int) [][2]int {
	k := min(rateSlices, n)
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return out
}

// sliceRate returns the median over the slices of work/elapsed, in units
// per second. Elapsed is the time the slice's ops were in flight — the loop
// is closed, so that is the slice's wall-clock less the generator's own
// bookkeeping and the calibration pauses — scaled by sp to the reference
// speed.
func sliceRate(ops []opTime, sp speedLog) float64 {
	var rates []float64
	for _, b := range sliceBounds(len(ops)) {
		lo, hi := b[0], b[1]
		var work float64
		var busy time.Duration
		for _, o := range ops[lo:hi] {
			work += o.work
			busy += o.end.Sub(o.start)
		}
		if el := busy.Seconds() * sp.factor(ops[lo].start, ops[hi-1].end); el > 0 {
			rates = append(rates, work/el)
		}
	}
	return median(rates)
}

// The sandbox's speed is not a constant: for minutes at a time, with
// nothing else running here, everything but register-only loops runs 20 to
// 40 % slower (other tenants of the host, presumably). In one such stretch
// ten seeds of dashboard_live spread by 9.8 % on values/s, 12.3 % on query
// time and 9.3 % on server CPU seconds as the clock read them. A benchmark
// that reports the clock compares the host's neighbours, not two commits.
// So the timed phases are interleaved with a fixed reference kernel, run in
// this process while the server is idle, and every time metric is scaled by
// calibNominalMs / (the kernel's time around it), the number the same work
// would have read with the machine at its reference speed: 3.3 %, 7.4 % and
// 3.2 % on those ten seeds. The kernel is this file's and never changes
// with the program.
const (
	calibValues    = 1 << 19 // 4 MB sorted from a 4 MB source: past the private caches, like a merge
	calibRepeats   = 2       // ~100 ms a sample: long enough to average the host's millisecond bursts
	calibNominalMs = 50.0    // the kernel's time at the sandbox's full speed
)

// calibrator holds the reference kernel's fixed input.
type calibrator struct{ src, buf []int64 }

// newCalibrator makes a kernel over n values: calibValues, whose time
// calibNominalMs is, or a few thousand in the smoke test, which only
// needs the code to run.
func newCalibrator(n int) *calibrator {
	c := &calibrator{src: make([]int64, n), buf: make([]int64, n)}
	rng := rand.New(rand.NewSource(1))
	for i := range c.src {
		c.src[i] = rng.Int63()
	}
	return c
}

// calSample is the reference kernel's time at one instant.
type calSample struct {
	at time.Time
	ms float64
}

// run times the kernel now.
func (c *calibrator) run() calSample {
	var total time.Duration
	for range calibRepeats {
		copy(c.buf, c.src)
		t := time.Now()
		slices.Sort(c.buf)
		total += time.Since(t)
	}
	return calSample{at: time.Now(), ms: ms(total) / calibRepeats}
}

// speedLog is a run's calibration samples in time order.
type speedLog []calSample

// factor is what a duration measured over [from, to] is multiplied by to
// read as it would at the reference speed: nominal ÷ the mean kernel time
// of the samples inside the interval and the two that bracket it. An empty
// log (wholePass took its samples) scales nothing.
func (sp speedLog) factor(from, to time.Time) float64 {
	if len(sp) == 0 {
		return 1
	}
	lo := sort.Search(len(sp), func(i int) bool { return sp[i].at.After(from) }) - 1
	hi := sort.Search(len(sp), func(i int) bool { return !sp[i].at.Before(to) })
	lo, hi = max(lo, 0), min(hi, len(sp)-1)
	total := 0.0
	for _, s := range sp[lo : hi+1] {
		total += s.ms
	}
	return calibNominalMs * float64(hi-lo+1) / total
}

// ratio is a/b, or 0 when b is 0 (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scaleTimes multiplies every time metric of m by f, in place: how the
// traced run brings a pass's raw timings to the reference speed, with one
// factor per pass.
func scaleTimes(m map[string]metric, f float64) map[string]metric {
	for name, v := range m {
		switch v.Unit {
		case "ns", "us", "ms", "s":
			v.Value *= f
			m[name] = v
		}
	}
	return m
}
