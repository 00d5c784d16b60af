package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/extsort"
	"repro/internal/gk"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/wire"
)

// layerCap bounds how many values a per-value microbench of pass B eats:
// enough for a stable mean, small enough that pass B stays a few seconds.
const layerCap = 1 << 20

// timeIt runs f and returns how long it took.
func timeIt(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// medianOf runs f n times and returns the median duration in unit.
func medianOf(n int, unit time.Duration, f func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(timeIt(f)) / float64(unit)
	}
	return median(xs)
}

// queryLayer measures internal/query against the traced pass's live DB:
// pattern expansion, plan execution and the summary merge on their own.
// The plan is the workload's own when it reads by plan, else one that
// selects the workload's streams.
func queryLayer(st *inproc, ops *opSeq, chk *checker) (map[string]metric, error) {
	op := ops.read[0]
	if op.plan == nil {
		prefix, _, _ := strings.Cut(ops.streams[0], ".")
		op = readOp{stream: -1, phis: []float64{0.5, 0.9, 0.99},
			plan: []byte(fmt.Sprintf(`{"match":"%s.**","phis":[0.5,0.9,0.99]}`, prefix))}
	}
	plan, err := query.ParsePlan(op.plan)
	if err != nil {
		return nil, err
	}
	names := st.db.Streams()
	var members []string
	expand := medianOf(21, time.Microsecond, func() { members, err = query.ExpandStreams(plan, names) })
	if err != nil {
		return nil, err
	}
	var res *query.Result
	exec := medianOf(5, time.Millisecond, func() {
		if r, rerr := st.db.RunPlan(plan); rerr != nil {
			err = rerr
		} else {
			res = r
		}
	})
	if err != nil {
		return nil, err
	}
	sums := make([]*core.ShardSummary, 0, len(members))
	for _, name := range members {
		s, err := st.db.ScopedSummary(name, query.Scope{})
		if err != nil {
			return nil, err
		}
		sums = append(sums, s)
	}
	merge := medianOf(5, time.Millisecond, func() { _, _, err = core.MergeShardSummaries(sums) })
	if err != nil {
		return nil, err
	}
	worst, err := chk.planErrOverBound(op, planAnswer(res))
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"query.expand_us_p50":           {Value: expand, Unit: "us", Samples: 21},
		"query.exec_ms_p50":             {Value: exec, Unit: "ms", Samples: 5},
		"query.merge_ms_p50":            {Value: merge, Unit: "ms", Samples: 5},
		"query.members_per_query":       {Value: float64(len(members)), Unit: "count"},
		"query.rank_err_over_bound_max": {Value: worst, Unit: "ratio"},
	}, nil
}

// isolatedLayers is pass B: the main stream's batches fed to each lower
// layer's public API on its own, over a heap backend, so a layer's number
// moves only when that layer changes.
func isolatedLayers(ops *opSeq) (map[string]metric, error) {
	m := map[string]metric{}
	main := mainStream(ops)
	var writeSteps, allSteps [][]int64
	for _, st := range ops.setup {
		if st.stream == main {
			allSteps = append(allSteps, st.values)
		}
	}
	for _, st := range ops.write {
		if st.stream == main {
			writeSteps = append(writeSteps, st.values)
			allSteps = append(allSteps, st.values)
		}
	}
	if len(writeSteps) == 0 {
		return nil, fmt.Errorf("main stream %s has no write steps", ops.streams[main])
	}
	capped := capSteps(writeSteps, layerCap)

	if err := wireLayer(m, capped, ops.spec.batch); err != nil {
		return nil, err
	}
	gkLayer(m, capped)
	if err := sortLayer(m, capped); err != nil {
		return nil, err
	}
	if err := diskLayer(m, capped); err != nil {
		return nil, err
	}
	if err := storeLayers(m, allSteps, ops); err != nil {
		return nil, err
	}
	return m, nil
}

// capSteps returns the leading steps that together hold at most limit
// values (always at least one step).
func capSteps(steps [][]int64, limit int) [][]int64 {
	n := 0
	for i, s := range steps {
		if n += len(s); n > limit && i > 0 {
			return steps[:i]
		}
	}
	return steps
}

func countAll(steps [][]int64) int {
	n := 0
	for _, s := range steps {
		n += len(s)
	}
	return n
}

// wireLayer encodes and decodes the workload's own batches.
func wireLayer(m map[string]metric, steps [][]int64, batch int) error {
	var enc, dec time.Duration
	var bytes, values int
	buf := make([]byte, 0, 1<<20)
	seq := uint64(0)
	for _, vs := range steps {
		for lo := 0; lo < len(vs); lo += batch {
			chunk := vs[lo:min(lo+batch, len(vs))]
			seq++
			f := &wire.Frame{Type: wire.TypeBatch, Seq: seq, StreamID: 1, Values: chunk}
			var err error
			enc += timeIt(func() { buf, err = wire.AppendFrame(buf[:0], f) })
			if err != nil {
				return err
			}
			plen, n := binary.Uvarint(buf[1:])
			payload := buf[1+n:]
			if n <= 0 || int(plen) != len(payload) {
				return fmt.Errorf("wire: frame header says %d payload bytes, have %d", plen, len(payload))
			}
			var got *wire.Frame
			dec += timeIt(func() { got, err = wire.DecodeFrame(buf[0], payload) })
			if err != nil {
				return err
			}
			if len(got.Values) != len(chunk) {
				return fmt.Errorf("wire: decoded %d of %d values", len(got.Values), len(chunk))
			}
			bytes += len(buf)
			values += len(chunk)
		}
	}
	m["wire.encode_ns_per_value"] = metric{Value: ratio(float64(enc), float64(values)), Unit: "ns", Samples: int(seq)}
	m["wire.decode_ns_per_value"] = metric{Value: ratio(float64(dec), float64(values)), Unit: "ns", Samples: int(seq)}
	m["wire.bytes_per_value"] = metric{Value: ratio(float64(bytes), float64(values)), Unit: "B"}
	return nil
}

// gkLayer inserts each step into a sketch at the engine's stream ε
// (ε₂/2 = ε/8), resetting between steps as EndStep does.
func gkLayer(m map[string]metric, steps [][]int64) {
	sk := gk.MustNew(epsilon / 8)
	var total time.Duration
	tuples := 0
	for _, vs := range steps {
		total += timeIt(func() {
			for _, v := range vs {
				sk.Insert(v)
			}
		})
		tuples = max(tuples, sk.TupleCount(), sk.MaxTupleCount())
		sk.Reset()
	}
	m["gk.insert_ns_per_value"] = metric{Value: ratio(float64(total), float64(countAll(steps))), Unit: "ns", Samples: len(steps)}
	m["gk.tuples_max"] = metric{Value: float64(tuples), Unit: "count"}
}

func heapManager(cacheBlocks int) (*disk.Manager, error) {
	mgr, err := disk.NewManagerOn(disk.NewMemBackend(), disk.DefaultBlockSize)
	if err != nil {
		return nil, err
	}
	if err := mgr.SetBlockFormat(disk.FormatColumnar); err != nil {
		return nil, err
	}
	if cacheBlocks > 0 {
		mgr.SetCache(cacheBlocks)
	}
	return mgr, nil
}

// sortLayer sorts each step into a partition-shaped file, as the level-0
// install does.
func sortLayer(m map[string]metric, steps [][]int64) error {
	mgr, err := heapManager(0)
	if err != nil {
		return err
	}
	var total time.Duration
	for i, vs := range steps {
		data := slices.Clone(vs) // SortSlice sorts in place
		name := fmt.Sprintf("sorted-%d", i)
		total += timeIt(func() { err = extsort.SortSlice(mgr, data, name) })
		if err != nil {
			return err
		}
		if err := mgr.Remove(name); err != nil {
			return err
		}
	}
	m["extsort.sort_ns_per_value"] = metric{Value: ratio(float64(total), float64(countAll(steps))), Unit: "ns", Samples: len(steps)}
	return nil
}

// diskLayer writes the sorted values as one columnar file and reads them
// back: sequentially (decode) and block by block at random (no cache).
func diskLayer(m map[string]metric, steps [][]int64) error {
	mgr, err := heapManager(0)
	if err != nil {
		return err
	}
	var vals []int64
	for _, vs := range steps {
		vals = append(vals, vs...)
	}
	slices.Sort(vals)
	var encode, decode time.Duration
	encode = timeIt(func() {
		var w *disk.Writer
		if w, err = mgr.Create("columnar"); err != nil {
			return
		}
		if err = w.AppendSlice(vals); err == nil {
			err = w.Close()
		}
	})
	if err != nil {
		return err
	}
	read := 0
	decode = timeIt(func() {
		var r *disk.Reader
		if r, err = mgr.OpenSequential("columnar"); err != nil {
			return
		}
		defer r.Close()
		for {
			_, ok, nerr := r.Next()
			if nerr != nil || !ok {
				err = nerr
				return
			}
			read++
		}
	})
	if err != nil {
		return err
	}
	if read != len(vals) {
		return fmt.Errorf("disk: read back %d of %d values", read, len(vals))
	}
	rr, err := mgr.OpenRandom("columnar")
	if err != nil {
		return err
	}
	defer rr.Close()
	rng := rand.New(rand.NewSource(int64(len(vals))))
	blockUs := make([]float64, 200)
	for i := range blockUs {
		idx := rng.Int63n(rr.Blocks())
		blockUs[i] = us(timeIt(func() { _, err = rr.Block(idx) }))
		if err != nil {
			return err
		}
	}
	n := float64(len(vals))
	m["disk.encode_ns_per_value"] = metric{Value: ratio(float64(encode), n), Unit: "ns"}
	m["disk.decode_ns_per_value"] = metric{Value: ratio(float64(decode), n), Unit: "ns"}
	m["disk.block_read_us_p50"] = metric{Value: median(blockUs), Unit: "us", Samples: len(blockUs)}
	return nil
}

// storeLayers replays the main stream's whole history (set-up and write
// steps) into a partition store of its own, then drives the workload's
// queries through core against it: the partition and core layers without
// the engine, the DB directory or the file backend around them.
func storeLayers(m map[string]metric, steps [][]int64, ops *opSeq) error {
	mgr, err := heapManager(ops.spec.cacheBlocks)
	if err != nil {
		return err
	}
	const eps1, eps2 = epsilon / 2, epsilon / 4
	store, err := partition.NewStore(mgr, partition.Config{
		Kappa: kappa, Eps1: eps1, SpillBatches: true, ProbeMemoEntries: 4096,
	})
	if err != nil {
		return err
	}
	var add time.Duration
	merges := 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i, vs := range steps {
		lo, hi = min(lo, slices.Min(vs)), max(hi, slices.Max(vs))
		data := slices.Clone(vs) // the store sorts its batch
		var bd partition.UpdateBreakdown
		add += timeIt(func() { bd, err = store.AddBatch(data, i+1) })
		if err != nil {
			return err
		}
		merges += bd.Merges
	}
	m["partition.addbatch_ms_per_step"] = metric{Value: ratio(ms(add), float64(len(steps))), Unit: "ms", Samples: len(steps)}
	m["partition.merges"] = metric{Value: float64(merges), Unit: "count"}
	m["partition.partitions_final"] = metric{Value: float64(store.PartitionCount()), Unit: "count"}
	m["partition.levels_final"] = metric{Value: float64(store.Levels()), Unit: "count"}

	ver := store.Pin()
	defer ver.Release()
	sums := ver.Entries()

	// One cursor per partition, seeded random probes inside the value range.
	rng := rand.New(rand.NewSource(int64(len(steps))))
	var rankUs []float64
	for _, s := range sums {
		c, err := partition.NewCursor(s, lo, hi, true)
		if err != nil {
			return err
		}
		for i := 0; i < 16; i++ {
			z := lo + rng.Int63n(hi-lo+1)
			rankUs = append(rankUs, us(timeIt(func() { _, err = c.Rank(z) })))
			if err != nil {
				c.Close() //nolint:errcheck // already failing
				return err
			}
		}
		if err := c.Close(); err != nil {
			return err
		}
	}
	m["partition.cursor_rank_us_p50"] = metric{Value: median(rankUs), Unit: "us", Samples: len(rankUs)}

	// The workload's read ops against this store. Plans carry the same
	// targets.
	n := ver.TotalCount()
	oracle := oracleOf(steps)
	queries := len(ops.read)
	var build, sweep time.Duration
	var cost core.QueryCost
	worst := 0.0
	for i := 0; i < queries; i++ {
		phis := ops.read[i].phis
		rs := make([]int64, len(phis))
		for j, phi := range phis {
			rs[j] = targetRank(phi, n)
		}
		var c *core.Combined
		build += timeIt(func() { c = core.BuildPieces(sums, nil, eps1, eps2) })
		var vals []int64
		var qc core.QueryCost
		sweep += timeIt(func() {
			vals, qc, err = core.AccurateMultiQueryOpts(c, epsilon, rs, core.QueryOptions{PinBlocks: true, Memo: ver.Memo()})
		})
		if err != nil {
			return err
		}
		cost.Iterations += qc.Iterations
		cost.RandReads += qc.RandReads
		cost.MemoHits += qc.MemoHits
		cost.SkippedBlocks += qc.SkippedBlocks
		worst = max(worst, rankErrOverEps(oracle, phis, vals))
	}
	q := float64(queries)
	m["core.build_us_per_query"] = metric{Value: ratio(us(build), q), Unit: "us", Samples: queries}
	m["core.sweep_us_per_query"] = metric{Value: ratio(us(sweep), q), Unit: "us", Samples: queries}
	m["core.probes_per_query"] = metric{Value: ratio(float64(cost.Iterations), q), Unit: "count", Samples: queries}
	m["core.rand_reads_per_query"] = metric{Value: ratio(float64(cost.RandReads), q), Unit: "blocks", Samples: queries}
	m["core.memo_hits_per_query"] = metric{Value: ratio(float64(cost.MemoHits), q), Unit: "count", Samples: queries}
	m["core.skipped_per_query"] = metric{Value: ratio(float64(cost.SkippedBlocks), q), Unit: "count", Samples: queries}
	m["core.rank_err_over_eps_max"] = metric{Value: worst, Unit: "ratio", Samples: queries}
	return nil
}
