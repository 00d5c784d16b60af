package main

import (
	"context"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"

	hsq "repro"
	"repro/hsqclient"
	"repro/internal/query"
)

// writer applies one time step and returns when it is durable and
// queryable. Implementations: the wire client (against hsqd or the
// in-process ingest server) and the DB itself (the trace's direct replay).
type writer interface {
	step(ctx context.Context, op int, st step) (stepTime, error)
	// preload applies steps without a barrier between them and returns
	// once all are acknowledged.
	preload(ctx context.Context, steps []step) error
	close() error
}

// stepTime is one step on the generator's clock: values handed over from
// start, the EndStep barrier from sealed to done.
type stepTime struct {
	start, sealed, done time.Time
}

// reader answers one query. Implementations: REST against hsqd, and the
// DB's public API in-process.
type reader interface {
	query(ctx context.Context, op int, r readOp) (answer, error)
}

// wireWriter drives one hsqclient connection.
type wireWriter struct {
	c       *hsqclient.Client
	streams []*hsqclient.Stream
	batch   int
	tr      *tracer
}

func dialWriter(addr string, ops *opSeq, tr *tracer) (*wireWriter, error) {
	c, err := hsqclient.Dial(addr,
		hsqclient.WithBatchSize(ops.spec.batch),
		// A dead server must fail the run, not park it in the redial loop.
		hsqclient.WithMaxReconnectAttempts(3))
	if err != nil {
		return nil, fmt.Errorf("dial ingest %s: %w", addr, err)
	}
	w := &wireWriter{c: c, batch: ops.spec.batch, tr: tr}
	for _, name := range ops.streams {
		w.streams = append(w.streams, c.Stream(name))
	}
	return w, nil
}

func (w *wireWriter) flush(ctx context.Context, op int) error {
	t := w.tr.now()
	err := w.c.FlushCtx(ctx)
	w.tr.record(layerClient, "Flush", op, t)
	return err
}

func (w *wireWriter) step(ctx context.Context, op int, st step) (stepTime, error) {
	h := w.streams[st.stream]
	var tm stepTime
	tm.start = time.Now()
	t := w.tr.now()
	err := h.ObserveSlice(st.values)
	w.tr.record(layerClient, "ObserveSlice", op, t)
	if err != nil {
		return tm, err
	}
	// A step larger than one batch has frames in flight: drain them first,
	// so the barrier below times the EndStep and not the tail of the data.
	if len(st.values) > w.batch {
		if err := w.flush(ctx, op); err != nil {
			return tm, err
		}
	}
	tm.sealed = time.Now()
	t = w.tr.now()
	err = h.EndStep()
	w.tr.record(layerClient, "EndStep", op, t)
	if err != nil {
		return tm, err
	}
	err = w.flush(ctx, op)
	tm.done = time.Now()
	return tm, err
}

func (w *wireWriter) preload(ctx context.Context, steps []step) error {
	for _, st := range steps {
		h := w.streams[st.stream]
		if err := h.ObserveSlice(st.values); err != nil {
			return err
		}
		if err := h.EndStep(); err != nil {
			return err
		}
	}
	return w.c.FlushCtx(ctx)
}

func (w *wireWriter) close() error { return w.c.Close() }

// dbWriter replays steps straight into the DB, the way the ingest server
// applies decoded frames: ObserveSliceCtx per batch, then EndStepCtx.
type dbWriter struct {
	db    *hsq.DB
	names []string
	batch int
	tr    *tracer
	// Filled per step for the hsq.* layer metrics.
	acquire []time.Duration
	observe []time.Duration
	endstep []time.Duration
	stats   []hsq.UpdateStats
}

func (w *dbWriter) step(ctx context.Context, op int, st step) (stepTime, error) {
	var tm stepTime
	tm.start = time.Now()
	// First touch: directory lookup, and hydration when the stream is cold.
	t := w.tr.now()
	s, err := w.db.Stream(w.names[st.stream])
	if err == nil {
		s.StreamCount()
	}
	w.tr.record(layerHsq, "Stream", op, t)
	if err != nil {
		return tm, err
	}
	w.acquire = append(w.acquire, time.Since(tm.start))

	t0 := time.Now()
	t = w.tr.now()
	for lo := 0; lo < len(st.values) && err == nil; lo += w.batch {
		err = s.ObserveSliceCtx(ctx, st.values[lo:min(lo+w.batch, len(st.values))])
	}
	w.tr.record(layerHsq, "ObserveSlice", op, t)
	if err != nil {
		return tm, err
	}
	tm.sealed = time.Now()
	w.observe = append(w.observe, tm.sealed.Sub(t0))

	t = w.tr.now()
	us, err := s.EndStepCtx(ctx)
	w.tr.record(layerHsq, "EndStep", op, t)
	tm.done = time.Now()
	w.endstep = append(w.endstep, tm.done.Sub(tm.sealed))
	w.stats = append(w.stats, us)
	return tm, err
}

func (w *dbWriter) preload(ctx context.Context, steps []step) error {
	for _, st := range steps {
		s, err := w.db.Stream(w.names[st.stream])
		if err != nil {
			return err
		}
		if err := s.ObserveSliceCtx(ctx, st.values); err != nil {
			return err
		}
		if _, err := s.EndStepCtx(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (w *dbWriter) close() error { return nil }

// restReader queries hsqd over its one keep-alive connection.
type restReader struct {
	srv     *server
	streams []string
}

func (r *restReader) query(ctx context.Context, _ int, op readOp) (answer, error) {
	if op.plan != nil {
		var res query.Result
		if err := r.srv.do(ctx, "POST", "/query", op.plan, &res); err != nil {
			return answer{}, err
		}
		return planAnswer(&res), nil
	}
	phis := make([]string, len(op.phis))
	for i, p := range op.phis {
		phis[i] = strconv.FormatFloat(p, 'g', -1, 64)
	}
	var reply struct {
		Values []int64 `json:"values"`
	}
	path := "/streams/" + url.PathEscape(r.streams[op.stream]) + "/quantiles?phi=" + strings.Join(phis, ",")
	if err := r.srv.get(ctx, path, &reply); err != nil {
		return answer{}, err
	}
	return answer{keys: []string{""}, values: [][]int64{reply.Values}}, nil
}

func planAnswer(res *query.Result) answer {
	var a answer
	for _, g := range res.Groups {
		if len(g.Windows) == 0 {
			continue
		}
		a.keys = append(a.keys, g.Key)
		a.values = append(a.values, g.Windows[0].Values)
		a.n = append(a.n, g.Windows[0].N)
	}
	return a
}

// dbReader queries the DB's public API in-process.
type dbReader struct {
	db      *hsq.DB
	streams []string
	tr      *tracer
}

func (r *dbReader) query(_ context.Context, op int, q readOp) (answer, error) {
	t := r.tr.now()
	defer r.tr.record(layerHsq, "Query", op, t)
	if q.plan != nil {
		p, err := query.ParsePlan(q.plan)
		if err != nil {
			return answer{}, err
		}
		res, err := r.db.RunPlan(p)
		if err != nil {
			return answer{}, err
		}
		return planAnswer(res), nil
	}
	s, ok := r.db.Lookup(r.streams[q.stream])
	if !ok {
		return answer{}, fmt.Errorf("unknown stream %q", r.streams[q.stream])
	}
	vals, _, err := s.Quantiles(q.phis)
	if err != nil {
		return answer{}, err
	}
	return answer{keys: []string{""}, values: [][]int64{vals}}, nil
}

// phaseLog is what the phases of one run measured on the generator's clock.
type phaseLog struct {
	steps   []stepTime // write phase, one per step
	values  []int      // values per step
	queries []opTime   // read phase, one per query
	// Phase boundaries. For a live workload the two phases are one
	// interval.
	writeStart, writeEnd, readStart, readEnd time.Time
	// The server's cumulative CPU seconds at each phase start and after
	// each op, when the run has a process to ask (nil otherwise).
	writeCPU0, readCPU0 float64
	stepCPU, queryCPU   []float64
	// The reference kernel's time around every slice of the measured
	// phases; empty when the run was not calibrated.
	speed speedLog
}

// writeBusy is the time the write phase's steps were in flight: its
// wall-clock less the calibration pauses and the generator's bookkeeping.
func (p *phaseLog) writeBusy() time.Duration {
	var d time.Duration
	for _, s := range p.steps {
		d += s.done.Sub(s.start)
	}
	return d
}

// busy is writeBusy for both phases. A live workload's reads run inside its
// steps.
func (p *phaseLog) busy(live bool) time.Duration {
	d := p.writeBusy()
	if !live {
		for _, q := range p.queries {
			d += q.end.Sub(q.start)
		}
	}
	return d
}

// wholePass replaces the slice-by-slice scaling by one factor for the pass,
// which it returns: the log's own methods then report raw times, and the
// caller scales every timing of the pass — spans and counters' intervals
// included — alike.
func (p *phaseLog) wholePass() float64 {
	f := p.speed.factor(p.writeStart, p.readEnd)
	p.speed = nil
	return f
}

// endstepMs is each step's EndStep barrier at the reference speed.
func (p *phaseLog) endstepMs() []float64 {
	out := make([]float64, len(p.steps))
	for i, s := range p.steps {
		out[i] = ms(s.done.Sub(s.sealed)) * p.speed.factor(s.sealed, s.done)
	}
	return out
}

// queryMs is each query's latency at the reference speed.
func (p *phaseLog) queryMs() []float64 {
	out := make([]float64, len(p.queries))
	for i, q := range p.queries {
		out[i] = ms(q.end.Sub(q.start)) * p.speed.factor(q.start, q.end)
	}
	return out
}

// sliceMedianPerOp returns the median over the slices of a cumulative
// series' increase per op (one reading per op, start before the first),
// each slice scaled to the reference speed over its ops' interval.
func (p *phaseLog) sliceMedianPerOp(start float64, cum []float64, span func(lo, hi int) (from, to time.Time)) float64 {
	var per []float64
	for _, b := range sliceBounds(len(cum)) {
		lo, hi := b[0], b[1]
		base := start
		if lo > 0 {
			base = cum[lo-1]
		}
		per = append(per, (cum[hi-1]-base)/float64(hi-lo)*p.speed.factor(span(lo, hi)))
	}
	return median(per)
}

// serverCPU is the server's CPU seconds for the run's fixed work: per
// phase, the median over equal-work slices of CPU per op, times the ops.
// A slice a neighbour disturbed (same instructions, more cycles) moves one
// slice, not the total. A live workload's reads run inside its write
// slices, so its steps carry all of it.
func (p *phaseLog) serverCPU(live bool) float64 {
	cpu := p.sliceMedianPerOp(p.writeCPU0, p.stepCPU, func(lo, hi int) (time.Time, time.Time) {
		return p.steps[lo].start, p.steps[hi-1].done
	}) * float64(len(p.stepCPU))
	if !live {
		cpu += p.sliceMedianPerOp(p.readCPU0, p.queryCPU, func(lo, hi int) (time.Time, time.Time) {
			return p.queries[lo].start, p.queries[hi-1].end
		}) * float64(len(p.queryCPU))
	}
	return cpu
}

func (p *phaseLog) ingestRate() float64 {
	ops := make([]opTime, len(p.steps))
	for i, s := range p.steps {
		ops[i] = opTime{start: s.start, end: s.done, work: float64(p.values[i])}
	}
	return sliceRate(ops, p.speed)
}

// queryRate is the read phase's queries per second.
func (p *phaseLog) queryRate() float64 { return sliceRate(p.queries, p.speed) }

// runPhases drives write phase → read phase → verify against (w, r), or
// the two measured phases at once for a live workload. mark is called at
// each phase boundary ("write0", "write1", "read0", "read1") so the caller
// can snapshot its counters there; cpu, when the server is a child process,
// reads its cumulative CPU seconds; cal, when the run is calibrated, is
// timed at every slice boundary of a phase, with the server idle. Failed
// operations go to chk and do not stop the run.
func runPhases(ctx context.Context, ops *opSeq, w writer, r reader, chk *checker, mark func(point string) error, cpu func() float64, cal *calibrator) (*phaseLog, error) {
	log := &phaseLog{}
	if cpu == nil {
		cpu = func() float64 { return 0 }
	}
	// The server is idle at every slice boundary (the loop is closed and a
	// live step waits for its polls), so the kernel is timed alone.
	calibrate := func() {
		if cal != nil {
			log.speed = append(log.speed, cal.run())
		}
	}
	// atSliceStart calibrates when op i of n opens a slice.
	atSliceStart := func(i, n int) {
		for _, b := range sliceBounds(n) {
			if b[0] == i {
				calibrate()
			}
		}
	}
	marks := func(points ...string) error {
		for _, p := range points {
			if err := mark(p); err != nil {
				return err
			}
		}
		return nil
	}
	writeOne := func(i int, st step) {
		tm, err := w.step(ctx, i, st)
		if err != nil {
			chk.opError(fmt.Sprintf("step %d on %s", i, ops.streams[st.stream]), err)
			return
		}
		chk.ack(st)
		log.steps = append(log.steps, tm)
		log.values = append(log.values, len(st.values))
		log.stepCPU = append(log.stepCPU, cpu())
	}
	// Reads keep their answers and errors; they are judged after the phase,
	// so the oracle's sorting never sits between two timed queries.
	type outcome struct {
		q   readOp
		ans answer
		err error
	}
	var reads []outcome
	polls := ops.spec.pollsPerStep
	readOne := func(i int, q readOp) {
		t0 := time.Now()
		ans, err := r.query(ctx, len(ops.write)+i, q)
		if err == nil {
			log.queries = append(log.queries, opTime{start: t0, end: time.Now(), work: 1})
			if polls == 0 {
				log.queryCPU = append(log.queryCPU, cpu())
			}
		}
		reads = append(reads, outcome{q, ans, err})
	}

	// A live workload's two phases are one interval.
	if err := marks("write0"); err != nil {
		return nil, err
	}
	if polls > 0 {
		if err := marks("read0"); err != nil {
			return nil, err
		}
	}
	log.writeCPU0 = cpu()
	log.writeStart = time.Now()
	for i, st := range ops.write {
		atSliceStart(i, len(ops.write))
		if polls == 0 {
			writeOne(i, st)
			continue
		}
		// Live: the step's polls run beside it, and the next step waits
		// for both, so every step starts from the same state and the work
		// is fixed.
		polled := make(chan struct{})
		go func() {
			defer close(polled)
			for j := i * polls; j < (i+1)*polls; j++ {
				readOne(j, ops.read[j])
			}
		}()
		writeOne(i, st)
		<-polled
	}
	log.writeEnd = time.Now()
	calibrate()
	if err := marks("write1"); err != nil {
		return nil, err
	}
	log.readStart, log.readEnd = log.writeStart, log.writeEnd
	if polls == 0 {
		if err := marks("read0"); err != nil {
			return nil, err
		}
		log.readCPU0 = cpu()
		log.readStart = time.Now()
		for i, q := range ops.read {
			atSliceStart(i, len(ops.read))
			readOne(i, q)
		}
		log.readEnd = time.Now()
		calibrate()
	}
	if err := marks("read1"); err != nil {
		return nil, err
	}
	for i, o := range reads {
		switch {
		case o.err != nil:
			chk.opError(fmt.Sprintf("query %d", i), o.err)
		case polls > 0:
			// Answered beside a moving N: counted, judged in verify below.
			chk.attempted++
		default:
			chk.check(o.q, o.ans)
		}
	}
	// Quiesced verify: nothing in flight, every stream checked.
	for i, q := range ops.verify {
		ans, err := r.query(ctx, len(ops.write)+len(reads)+i, q)
		if err != nil {
			chk.opError(fmt.Sprintf("verify %d", i), err)
			continue
		}
		chk.check(q, ans)
	}
	return log, ctx.Err()
}
