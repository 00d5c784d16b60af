package main

import (
	"context"
	"fmt"
	"slices"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets the server up from nothing
// (start hsqd → /healthz → preload acknowledged). setup_s is the median;
// the last set-up is the one the measured phases run on.
const setupRepeats = 5

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // latency/rate samples behind a median
	// Raw is what the clock read, for a gated time metric: Value is Raw
	// scaled, slice by slice, to the reference speed.
	Raw float64 `json:"raw,omitempty"`
}

// result is one workload's outcome: the driver's last-line JSON plus what
// `run -out` stores for diff.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Scale     float64  `json:"scale"`
	OpHash    string   `json:"op_hash"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Phases is each phase's wall-clock seconds: context for the reader,
	// not a metric (rates and latencies are medians, not totals).
	Phases map[string]float64 `json:"phase_seconds"`
	// CalibMs is the reference kernel's median time over the run: the time
	// metrics are scaled by calibNominalMs/CalibMs (slice by slice), so
	// metric × CalibMs/calibNominalMs is roughly what the clock read.
	CalibMs float64           `json:"calib_ms,omitempty"`
	Metrics map[string]metric `json:"metrics"`
}

// childRun is the raw material of one run against an hsqd child, from
// which both the end-to-end metrics and the trace's hsqd.* metrics derive.
type childRun struct {
	log      *phaseLog
	chk      *checker
	setups   []float64 // seconds as the clock read, one per set-up
	setupFac []float64 // each set-up's factor to the reference speed
	calibMs  float64   // median reference-kernel time over the run
	startMs  float64   // exec → /healthz of the measured server
	reopenMs float64   // restart on the written dir → /healthz (0 if not measured)
	marks    map[string]childMark
	rss      []rssSample // resident set, sampled through the measured phases
	rssPeak  float64     // VmHWM just before shutdown
	dirBytes int64
	values   int // values stored at shutdown (setup + acknowledged writes)
}

// childMark is the server's counters at a phase boundary.
type childMark struct {
	dev       deviceStats
	user, sys float64 // cumulative CPU seconds
}

// settle flushes the filesystem's dirty pages and journal, so that what a
// timed section's fsyncs wait for is its own writes and not the debris of
// the directories removed just before it (measured: without this, the
// fleet's EndStep median doubles over five back-to-back runs).
func settle() { syscall.Sync() }

// setupServer starts hsqd on a fresh dir and preloads it.
func (e *env) setupServer(ctx context.Context, ops *opSeq) (*server, *wireWriter, float64, error) {
	dir, err := e.tempDir(ops.spec.name)
	if err != nil {
		return nil, nil, 0, err
	}
	settle()
	t0 := time.Now()
	srv, err := e.startServer(ctx, dir, ops.spec)
	if err != nil {
		return nil, nil, 0, err
	}
	w, err := dialWriter(srv.ingAddr, ops, nil)
	if err == nil {
		err = w.preload(ctx, ops.setup)
	}
	if err != nil {
		srv.kill()
		return nil, nil, 0, fmt.Errorf("preload: %w\nhsqd stderr:\n%s", err, srv.stderr.String())
	}
	return srv, w, time.Since(t0).Seconds(), nil
}

// runChild runs the workload against a real hsqd process, untraced, after
// setting it up setups times. With reopen it also restarts hsqd on the
// written warehouse to time recovery.
func (e *env) runChild(ctx context.Context, ops *opSeq, setups int, reopen bool) (*childRun, error) {
	run := &childRun{chk: newChecker(ops), marks: map[string]childMark{}}
	var (
		srv *server
		w   *wireWriter
	)
	// The reference kernel is timed around every set-up: setup_s, like the
	// phases' metrics, is reported at the reference speed.
	speed := speedLog{e.cal.run()}
	for i := 0; i < setups; i++ {
		if srv != nil {
			// The discarded set-up's directory stays until the run ends:
			// deleting it now would queue journal and discard work behind
			// the fsyncs about to be timed.
			w.close() //nolint:errcheck // discarded set-up
			srv.kill()
		}
		var (
			secs float64
			err  error
		)
		srv, w, secs, err = e.setupServer(ctx, ops)
		if err != nil {
			return nil, err
		}
		speed = append(speed, e.cal.run())
		run.setups = append(run.setups, secs)
		run.setupFac = append(run.setupFac, speed.factor(speed[i].at, speed[i+1].at))
	}
	defer e.removeDir(srv.dir)
	settle()
	run.startMs = ms(srv.startDur)
	for _, st := range ops.setup {
		run.chk.ack(st)
	}

	mark := func(point string) error {
		dev, err := srv.deviceStats(ctx)
		if err != nil {
			return fmt.Errorf("GET /streams at %s: %w\nhsqd stderr:\n%s", point, err, srv.stderr.String())
		}
		user, sys, err := srv.cpuTimes()
		if err != nil {
			return err
		}
		run.marks[point] = childMark{dev: dev, user: user, sys: sys}
		return nil
	}
	stopRSS := srv.sampleRSS(&run.rss)
	cpu := func() float64 {
		user, sys, _ := srv.cpuTimes() //nolint:errcheck // mark reports a dead child
		return user + sys
	}
	log, err := runPhases(ctx, ops, w, &restReader{srv: srv, streams: ops.streams}, run.chk, mark, cpu, e.cal)
	stopRSS()
	if err != nil {
		srv.kill()
		return nil, fmt.Errorf("%w\nhsqd stderr:\n%s", err, srv.stderr.String())
	}
	run.log = log
	var kernel []float64
	for _, s := range append(speed, log.speed...) {
		kernel = append(kernel, s.ms)
	}
	run.calibMs = median(kernel)
	if err := w.close(); err != nil {
		run.chk.opError("close writer", err)
	}
	if run.rssPeak, err = srv.statusMB("VmHWM"); err != nil {
		srv.kill()
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if run.dirBytes, err = dirBytes(srv.dir); err != nil {
		return nil, err
	}
	run.values = countValues(ops.setup) + sumInts(log.values)
	if reopen {
		again, err := e.startServer(ctx, srv.dir, ops.spec)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		run.reopenMs = ms(again.startDur)
		again.kill()
	}
	return run, nil
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// timeMetrics derives the gated time metrics from a phase log and the
// set-ups, each set-up's seconds multiplied by its factor (nil: by 1).
func (run *childRun) timeMetrics(log *phaseLog, setupFac []float64) map[string]metric {
	setups := slices.Clone(run.setups)
	for i, f := range setupFac {
		setups[i] *= f
	}
	return map[string]metric{
		"setup_s":             {Value: median(setups), Unit: "s", Samples: len(setups)},
		"ingest_values_per_s": {Value: log.ingestRate(), Unit: "1/s", Samples: min(rateSlices, len(log.steps))},
		"query_ms":            {Value: ratio(1000, log.queryRate()), Unit: "ms", Samples: min(rateSlices, len(log.queries))},
		"server_cpu_s":        {Value: log.serverCPU(run.chk.ops.spec.live()), Unit: "s", Samples: rateSlices},
	}
}

// endToEnd derives the gated metrics from a child run: the time metrics at
// the reference speed, with the clock's own reading beside each.
func (run *childRun) endToEnd() map[string]metric {
	m := run.timeMetrics(run.log, run.setupFac)
	unscaled := *run.log
	unscaled.speed = nil
	for name, raw := range run.timeMetrics(&unscaled, nil) {
		v := m[name]
		v.Raw = raw.Value
		m[name] = v
	}
	w0, w1 := run.marks["write0"], run.marks["write1"]
	m["server_rss_mb"] = metric{Value: run.residentMB(), Unit: "MB", Samples: len(run.rss)}
	m["backend_writes_per_kvalue"] = metric{
		Value: ratio(float64(w1.dev.SeqWrites-w0.dev.SeqWrites), float64(sumInts(run.log.values))/1000),
		Unit:  "blocks",
	}
	return m
}

// residentMB is the larger of the two phases' median resident set. One
// median over both phases would sit on the step between their levels (the
// fleet's read phase holds 25 MB more than its write phase) and jump with
// the phases' relative length.
func (run *childRun) residentMB() float64 {
	within := func(from, to time.Time) float64 {
		var xs, all []float64
		for _, s := range run.rss {
			all = append(all, s.mb)
			if !s.at.Before(from) && !s.at.After(to) {
				xs = append(xs, s.mb)
			}
		}
		if len(xs) == 0 { // a phase shorter than the sampling interval
			xs = all
		}
		return median(xs)
	}
	return max(within(run.log.writeStart, run.log.writeEnd), within(run.log.readStart, run.log.readEnd))
}

func (run *childRun) phases() map[string]float64 {
	return map[string]float64{
		"setup": sum(run.setups),
		"write": run.log.writeEnd.Sub(run.log.writeStart).Seconds(),
		"read":  run.log.readEnd.Sub(run.log.readStart).Seconds(),
	}
}

// hsqdLayer derives the trace's hsqd.* metrics from a child run, its
// timings scaled to the reference speed by one factor for the pass.
func (run *childRun) hsqdLayer() map[string]metric {
	log := *run.log
	factor := log.wholePass()
	w0, r0, r1 := run.marks["write0"], run.marks["read0"], run.marks["read1"]
	qs, es := steady(log.queryMs()), steady(log.endstepMs())
	return scaleTimes(map[string]metric{
		"hsqd.query_p50_ms":         {Value: median(qs), Unit: "ms", Samples: len(qs)},
		"hsqd.query_p99_ms":         {Value: percentile(qs, 0.99), Unit: "ms", Samples: len(qs)},
		"hsqd.rss_peak_mb":          {Value: run.rssPeak, Unit: "MB"},
		"hsqd.disk_bytes_per_value": {Value: ratio(float64(run.dirBytes), float64(run.values)), Unit: "B"},
		"hsqd.endstep_p50_ms":       {Value: median(es), Unit: "ms", Samples: len(es)},
		"hsqd.endstep_p99_ms":       {Value: percentile(es, 0.99), Unit: "ms", Samples: len(es)},
		"hsqd.cpu_user_s":           {Value: r1.user - w0.user, Unit: "s"},
		"hsqd.cpu_sys_s":            {Value: r1.sys - w0.sys, Unit: "s"},
		"hsqd.start_ms":             {Value: run.startMs, Unit: "ms"},
		"hsqd.reopen_ms":            {Value: run.reopenMs, Unit: "ms"},
		"hsqd.backend_reads_per_query": {
			Value: ratio(float64(r1.dev.RandReads-r0.dev.RandReads), float64(len(log.queries))),
			Unit:  "blocks", Samples: len(log.queries),
		},
	}, factor)
}

// runEndToEnd is `run` for one workload: the untraced, gated measurement.
func (e *env) runEndToEnd(ctx context.Context, w *workloadSpec, seed int64, scale float64) (*result, error) {
	ops := buildOps(w, seed, scale)
	run, err := e.runChild(ctx, ops, setupRepeats, false)
	if err != nil {
		return nil, err
	}
	return &result{
		Workload: w.name, Seed: seed, Scale: scale, OpHash: ops.hash,
		Attempted: run.chk.attempted, Failed: run.chk.failed, Failures: run.chk.failures,
		Phases: run.phases(), CalibMs: run.calibMs,
		Metrics: run.endToEnd(),
	}, nil
}
