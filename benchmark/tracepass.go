package main

import (
	"context"
	"fmt"
	"time"

	hsq "repro"
	"repro/internal/ingest"
)

// traceShare is the leading share of the run's write and read phases a
// traced run replays. One traced run makes five passes over that prefix
// (hsqd child, full stack traced, full stack untraced, direct replay,
// isolated layers); at this share they fit the wall-clock budget of one
// end-to-end run. The set-up is replayed whole, so the store a pass works
// on is the one the end-to-end run starts from.
const traceShare = 0.3

// traceMaxSteps caps the prefix's write phase: the workload of many small
// steps is replayed once more on the file backend, where a step costs a few
// fsyncs.
const traceMaxSteps = 600

// passMark is the in-process stack's counters at a phase boundary.
type passMark struct {
	at   int64 // tracer clock (0 when untraced)
	io   hsq.IOStats
	dir  hsq.DirectoryStats
	memo hsq.ProbeMemoStats
	ing  ingest.Stats
}

// stackPass is one replay of the op sequence through the in-process stack.
type stackPass struct {
	tr     *tracer
	chk    *checker
	log    *phaseLog // raw times: the pass is scaled as a whole, by factor
	factor float64   // reference speed ÷ the machine's speed over the pass
	marks  map[string]passMark
	memKB  float64 // summary memory of the hydrated streams at the end
}

// busy is the seconds the pass's operations were in flight, at the
// reference speed.
func (p *stackPass) busy() float64 {
	return p.log.busy(p.chk.ops.spec.live()).Seconds() * p.factor
}

// mainStream is the stream the single-stream layer metrics follow: the one
// the workload reads, or the first one it writes when reads are plans.
func mainStream(ops *opSeq) int {
	if s := ops.read[0].stream; s >= 0 {
		return s
	}
	return ops.write[0].stream
}

// runStack replays ops through an in-process stack opened on dir, writing
// through the writer connect makes for it: the wire client (passes A) or
// the DB itself (the direct replay). after, when non-nil, runs against the
// live DB once the phases are done.
func runStack(ctx context.Context, dir string, ops *opSeq, tr *tracer, chk *checker, cal *calibrator,
	connect func(*inproc) (writer, error), after func(*inproc) error) (*stackPass, error) {
	st, err := openInproc(dir, ops.spec, tr)
	if err != nil {
		return nil, err
	}
	if ops.spec.memBackend { // a heap has no warehouse to start from
		if err := (&dbWriter{db: st.db, names: ops.streams, batch: ops.spec.batch}).preload(ctx, ops.setup); err != nil {
			st.close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	w, err := connect(st)
	if err != nil {
		st.close() //nolint:errcheck // already failing
		return nil, err
	}
	pass := &stackPass{tr: tr, chk: chk, marks: map[string]passMark{}}
	main := ops.streams[mainStream(ops)]
	mark := func(point string) error {
		m := passMark{at: tr.now(), io: st.db.DiskStats(), dir: st.db.DirectoryStats(), ing: st.ing.Stats()}
		if s, ok := st.db.Lookup(main); ok && s.Hydrated() {
			m.memo = s.ProbeMemoStats()
		}
		pass.marks[point] = m
		return nil
	}
	pass.log, err = runPhases(ctx, ops, w, &dbReader{db: st.db, streams: ops.streams, tr: tr}, chk, mark, nil, cal)
	if err == nil {
		pass.factor = pass.log.wholePass()
		for _, name := range ops.streams {
			if s, ok := st.db.Lookup(name); ok && s.Hydrated() {
				pass.memKB += float64(s.MemoryUsage().Total()) / 1024
			}
		}
		if after != nil {
			err = after(st)
		}
	}
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close writer: %w", cerr)
	}
	if cerr := st.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close stack: %w", cerr)
	}
	return pass, err
}

// spanSum totals the duration (ms), count and bytes of the named spans of
// one layer that start in [from, to).
func (p *stackPass) spanSum(layer int, name string, from, to int64) (durMs float64, count int, bytes int64) {
	for _, s := range p.tr.window(layer, from, to) {
		if s.Name == name {
			durMs += float64(s.End-s.Start) / 1e6
			count++
			bytes += s.N
		}
	}
	return
}

// fullStackLayer derives the metrics pass A measures: the client SDK, the
// ingest server's counters, the DB's read side and the backend decorator.
func (p *stackPass) fullStackLayer(self [layerCount]int64) map[string]metric {
	w0, w1, r0, r1 := p.marks["write0"], p.marks["write1"], p.marks["read0"], p.marks["read1"]
	m := map[string]metric{}

	busy, _, _ := p.spanSum(layerClient, "ObserveSlice", w0.at, w1.at)
	wait, nflush, _ := p.spanSum(layerClient, "Flush", w0.at, w1.at)
	m["hsqclient.observe_busy_ms"] = metric{Value: busy, Unit: "ms", Samples: len(p.log.steps)}
	m["hsqclient.flush_wait_ms"] = metric{Value: wait, Unit: "ms", Samples: nflush}

	batches := float64(w1.ing.Batches - w0.ing.Batches)
	m["ingest.batches"] = metric{Value: batches, Unit: "count"}
	m["ingest.values_per_batch"] = metric{Value: ratio(float64(w1.ing.Values-w0.ing.Values), batches), Unit: "count"}

	qs := steady(p.log.queryMs())
	m["hsq.query_ms_p50"] = metric{Value: median(qs), Unit: "ms", Samples: len(qs)}
	m["hsq.query_ms_p99"] = metric{Value: percentile(qs, 0.99), Unit: "ms", Samples: len(qs)}
	m["hsq.hydrations"] = metric{Value: float64(r1.dir.Hydrations - w0.dir.Hydrations), Unit: "count"}
	m["hsq.evictions"] = metric{Value: float64(r1.dir.Evictions - w0.dir.Evictions), Unit: "count"}
	m["hsq.summary_mem_kb"] = metric{Value: p.memKB, Unit: "KB"}
	m["query.hydrations_during_read"] = metric{Value: float64(r1.dir.Hydrations - r0.dir.Hydrations), Unit: "count"}

	hits, misses := float64(r1.memo.Hits-r0.memo.Hits), float64(r1.memo.Misses-r0.memo.Misses)
	m["partition.memo_hit_ratio"] = metric{Value: ratio(hits, hits+misses), Unit: "ratio"}
	rd := r1.io.Sub(r0.io)
	m["disk.cache_hit_ratio"] = metric{Value: ratio(float64(rd.CacheHits), float64(rd.CacheHits+rd.CacheMisses)), Unit: "ratio"}
	m["disk.skip_ratio"] = metric{
		Value: ratio(float64(rd.SkippedBlocks), float64(rd.SkippedBlocks+rd.RandReads+rd.CacheHits)),
		Unit:  "ratio",
	}

	// The backend over both measured phases; a live workload's phases are
	// one interval, so the union is [write0, read1) either way.
	syncMs, syncs, _ := p.spanSum(layerBackend, "Sync", w0.at, r1.at)
	_, writeSyncs, _ := p.spanSum(layerBackend, "Sync", w0.at, w1.at)
	_, writes, wbytes := p.spanSum(layerBackend, "Write", w0.at, r1.at)
	_, reads, rbytes := p.spanSum(layerBackend, "ReadAt", w0.at, r1.at)
	_, metas, _ := p.spanSum(layerBackend, "WriteMeta", w0.at, r1.at)
	m["backend.syncs"] = metric{Value: float64(syncs), Unit: "count"}
	m["backend.syncs_per_endstep"] = metric{Value: ratio(float64(writeSyncs), float64(len(p.log.steps))), Unit: "count"}
	m["backend.sync_ms"] = metric{Value: syncMs, Unit: "ms", Samples: syncs}
	m["backend.write_calls"] = metric{Value: float64(writes), Unit: "count"}
	m["backend.bytes_written"] = metric{Value: float64(wbytes), Unit: "B"}
	m["backend.read_calls"] = metric{Value: float64(reads), Unit: "count"}
	m["backend.bytes_read"] = metric{Value: float64(rbytes), Unit: "B"}
	m["backend.meta_writes"] = metric{Value: float64(metas), Unit: "count"}
	m["backend.busy_ms"] = metric{Value: float64(self[layerBackend]) / 1e6, Unit: "ms"}
	return m
}

// directLayer derives the hsq.* write-side metrics from the direct replay.
func directLayer(w *dbWriter, values int) map[string]metric {
	toMs := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = ms(d)
		}
		return out
	}
	es := steady(toMs(w.endstep))
	var load, sortT, merge, summ time.Duration
	for _, us := range w.stats {
		load, sortT, merge, summ = load+us.Load, sortT+us.Sort, merge+us.Merge, summ+us.Summary
	}
	steps := float64(len(w.stats))
	acq := steady(toMs(w.acquire))
	return map[string]metric{
		"hsq.observe_ns_per_value":  {Value: ratio(sum(toMs(w.observe))*1e6, float64(values)), Unit: "ns", Samples: len(w.observe)},
		"hsq.endstep_ms_p50":        {Value: median(es), Unit: "ms", Samples: len(es)},
		"hsq.endstep_ms_p99":        {Value: percentile(es, 0.99), Unit: "ms", Samples: len(es)},
		"hsq.endstep_load_ms":       {Value: ratio(ms(load), steps), Unit: "ms", Samples: len(w.stats)},
		"hsq.endstep_sort_ms":       {Value: ratio(ms(sortT), steps), Unit: "ms", Samples: len(w.stats)},
		"hsq.endstep_merge_ms":      {Value: ratio(ms(merge), steps), Unit: "ms", Samples: len(w.stats)},
		"hsq.endstep_summary_ms":    {Value: ratio(ms(summ), steps), Unit: "ms", Samples: len(w.stats)},
		"hsq.stream_acquire_us_p50": {Value: median(acq) * 1000, Unit: "us", Samples: len(acq)},
	}
}

// stage is what the in-process passes of one op sequence start from. On
// the file backend that is one preloaded warehouse, copied per pass, so no
// pass pays (or perturbs) the set-up; on the heap there is nothing to copy
// and runStack preloads each pass's own DB.
type stage struct {
	e       *env
	ops     *opSeq
	seedDir string
}

func (e *env) newStage(ctx context.Context, ops *opSeq) (*stage, error) {
	s := &stage{e: e, ops: ops}
	if ops.spec.memBackend {
		return s, nil
	}
	var err error
	if s.seedDir, err = e.tempDir(ops.spec.name + "-preload"); err != nil {
		return nil, err
	}
	pre, err := openInproc(s.seedDir, ops.spec, nil)
	if err != nil {
		return nil, err
	}
	err = (&dbWriter{db: pre.db, names: ops.streams, batch: ops.spec.batch}).preload(ctx, ops.setup)
	if cerr := pre.close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return s, nil
}

func (s *stage) close() {
	if s.seedDir != "" {
		s.e.removeDir(s.seedDir)
	}
}

// fresh returns a pass's own directory (holding the preloaded warehouse on
// the file backend) and a checker that has acknowledged the set-up.
func (s *stage) fresh(label string) (string, *checker, error) {
	dir, err := s.e.tempDir(s.ops.spec.name + "-" + label)
	if err != nil {
		return "", nil, err
	}
	chk := newChecker(s.ops)
	for _, st := range s.ops.setup {
		chk.ack(st)
	}
	if s.seedDir != "" {
		err = copyDir(s.seedDir, dir)
	}
	return dir, chk, err
}

// directPass replays the stage's steps straight into the DB, under tracing.
func (s *stage) directPass(ctx context.Context) (*dbWriter, *stackPass, error) {
	dir, chk, err := s.fresh("direct")
	if err != nil {
		return nil, nil, err
	}
	defer s.e.removeDir(dir)
	tr := newTracer()
	var dw *dbWriter
	pass, err := runStack(ctx, dir, s.ops, tr, chk, s.e.cal, func(st *inproc) (writer, error) {
		dw = &dbWriter{db: st.db, names: s.ops.streams, batch: s.ops.spec.batch, tr: tr}
		return dw, nil
	}, nil)
	return dw, pass, err
}

// fileLayer derives the two file-backend metrics from a direct replay that
// ran on files.
func fileLayer(w *dbWriter, p *stackPass) map[string]metric {
	es := make([]float64, len(w.endstep))
	for i, d := range w.endstep {
		es[i] = ms(d)
	}
	es = steady(es)
	syncMs, syncs, _ := p.spanSum(layerBackend, "Sync", p.marks["write0"].at, p.marks["write1"].at)
	return map[string]metric{
		"hsq.endstep_file_ms_p50":          {Value: median(es), Unit: "ms", Samples: len(es)},
		"backend.file_sync_ms_per_endstep": {Value: ratio(syncMs, float64(len(w.endstep))), Unit: "ms", Samples: syncs},
	}
}

// atReferenceSpeed runs a set of microbenchmarks between two timings of the
// reference kernel and scales their time metrics by what those read.
func (e *env) atReferenceSpeed(measure func() (map[string]metric, error)) (map[string]metric, error) {
	before := e.cal.run()
	m, err := measure()
	after := e.cal.run()
	return scaleTimes(m, speedLog{before, after}.factor(before.at, after.at)), err
}

// runTrace is `run -trace 1` for one workload: five passes over the same seeded
// op sequence, reporting every per-layer metric.
func (e *env) runTrace(ctx context.Context, w *workloadSpec, seed int64, scale float64, spansOut string) (*result, error) {
	ops := buildOps(w, seed, scale)
	ops.prefix(traceShare, traceMaxSteps)
	res := &result{Workload: w.name, Seed: seed, Scale: scale, OpHash: ops.hash, Metrics: map[string]metric{}, Phases: map[string]float64{}}
	add := func(ms map[string]metric) {
		for k, v := range ms {
			res.Metrics[k] = v
		}
	}
	count := func(chk *checker) {
		res.Attempted += chk.attempted
		res.Failed += chk.failed
		res.Failures = append(res.Failures, chk.failures...)
	}

	// Pass 0: a real hsqd child, untraced, with a restart on its warehouse.
	child, err := e.runChild(ctx, ops, 1, true)
	if err != nil {
		return nil, fmt.Errorf("hsqd pass: %w", err)
	}
	count(child.chk)
	add(child.hsqdLayer())

	stage, err := e.newStage(ctx, ops)
	if err != nil {
		return nil, err
	}
	defer stage.close()

	// Pass A: the full stack under tracing. The plan-layer metrics run
	// against its DB before it closes.
	dir, chk, err := stage.fresh("traced")
	if err != nil {
		return nil, err
	}
	var planLayer map[string]metric
	tr := newTracer()
	overWire := func(tr *tracer) func(*inproc) (writer, error) {
		return func(st *inproc) (writer, error) { return dialWriter(st.addr, ops, tr) }
	}
	traced, err := runStack(ctx, dir, ops, tr, chk, e.cal, overWire(tr), func(st *inproc) error {
		var qerr error
		planLayer, qerr = e.atReferenceSpeed(func() (map[string]metric, error) { return queryLayer(st, ops, chk) })
		return qerr
	})
	e.removeDir(dir)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	count(chk)
	from, to := traced.marks["write0"].at, traced.marks["read1"].at
	self := traced.tr.selfTimes(from, to)
	add(scaleTimes(traced.fullStackLayer(self), traced.factor))
	add(planLayer)
	if spansOut != "" {
		if err := traced.tr.dump(spansOut); err != nil {
			return nil, err
		}
	}
	// Pass A's wall-clock split into the layers' self times (they sum to it
	// by construction: every instant belongs to the deepest open layer).
	res.Phases["traced"] = float64(to-from) / 1e9
	for l, t := range self {
		res.Phases["self."+layerNames[l]] = float64(t) / 1e9
	}

	// Pass A′: the same stack with tracing off — the tracing overhead.
	dir, chk, err = stage.fresh("untraced")
	if err != nil {
		return nil, err
	}
	plain, err := runStack(ctx, dir, ops, nil, chk, e.cal, overWire(nil), nil)
	e.removeDir(dir)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	count(chk)
	res.Metrics["trace.overhead_frac"] = metric{Value: ratio(traced.busy(), plain.busy()) - 1, Unit: "ratio"}

	// Direct replay: the same steps straight into the DB, no wire, no
	// ingest server. What pass A's write phase costs beyond it is theirs.
	dw, direct, err := stage.directPass(ctx)
	if err != nil {
		return nil, fmt.Errorf("direct pass: %w", err)
	}
	count(direct.chk)
	values := countValues(ops.write)
	add(scaleTimes(directLayer(dw, values), direct.factor))
	over := traced.log.writeBusy().Seconds()*traced.factor - direct.log.writeBusy().Seconds()*direct.factor
	res.Metrics["ingest.overhead_ns_per_value"] = metric{Value: ratio(over*1e9, float64(values)), Unit: "ns"}
	res.Metrics["ingest.overhead_us_per_step"] = metric{Value: ratio(over*1e6, float64(len(ops.write))), Unit: "us"}
	res.Metrics["hsqd.rest_overhead_us_per_query"] = metric{
		Value: (res.Metrics["hsqd.query_p50_ms"].Value - res.Metrics["hsq.query_ms_p50"].Value) * 1000,
		Unit:  "us",
	}

	// The file backend's share of a step. Where hsqd runs on the heap the
	// passes above do too, so the layers add up to the gated numbers; one
	// more direct replay on a file-backed copy of the workload prices what
	// the heap leaves out: a step that is written and fsynced.
	onFile, fdw := direct, dw
	if w.memBackend {
		spec := *w
		spec.memBackend = false
		fileOps := *ops
		fileOps.spec = &spec
		fstage, err := e.newStage(ctx, &fileOps)
		if err != nil {
			return nil, err
		}
		defer fstage.close()
		if fdw, onFile, err = fstage.directPass(ctx); err != nil {
			return nil, fmt.Errorf("file-backed direct pass: %w", err)
		}
		count(onFile.chk)
	}
	add(scaleTimes(fileLayer(fdw, onFile), onFile.factor))

	// Pass B: the same inputs fed to each lower layer on its own.
	lower, err := e.atReferenceSpeed(func() (map[string]metric, error) { return isolatedLayers(ops) })
	if err != nil {
		return nil, fmt.Errorf("isolated layers: %w", err)
	}
	add(lower)

	res.Phases["write"] = traced.log.writeEnd.Sub(traced.log.writeStart).Seconds()
	res.Phases["read"] = traced.log.readEnd.Sub(traced.log.readStart).Seconds()
	res.CalibMs = child.calibMs
	return res, nil
}
