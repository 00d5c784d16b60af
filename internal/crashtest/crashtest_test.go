package crashtest

import (
	"flag"
	"fmt"
	"testing"

	hsq "repro"
	"repro/internal/disk"
	"repro/internal/query"
)

var (
	seedFlag   = flag.Int64("crash.seed", 1, "workload seed for the crash harness")
	opsFlag    = flag.Int("crash.ops", 520, "workload operations in the crash harness plan")
	strideFlag = flag.Int("crash.stride", 0, "test every Nth crash point (0 = every point, or a sparse sample under -short)")
)

func harnessConfig() Config {
	return Config{Seed: *seedFlag, Ops: *opsFlag}.WithDefaults()
}

// TestCrashEveryPoint is the tentpole assertion: for a ≥500-operation
// multi-stream workload with drops and re-creates, crash the backend at
// every mutating-operation index, restart it both dropping and keeping
// unsynced writes, and require that reopen succeeds, the recovered state is
// a prefix of completed steps with quantiles within ε of the oracle, and
// the DB stays writable. It logs the backend operations per EndStep: the
// durable sequence of a step is its partition file, the merge outputs, data
// barrier, manifest, barrier, so a change in barrier ordering moves that
// number.
func TestCrashEveryPoint(t *testing.T) {
	cfg := harnessConfig()
	plan := BuildPlan(cfg)
	if len(plan) < 500 {
		t.Fatalf("plan has %d operations, want >= 500", len(plan))
	}
	steps, drops := 0, 0
	for _, op := range plan {
		switch {
		case op.Drop:
			drops++
		case op.Batch == nil:
			steps++
		}
	}
	if drops == 0 {
		t.Fatal("plan schedules no drops — drop commit and sweep crash points would go untested")
	}

	// Counting run: no crash armed; the workload must complete cleanly.
	counter := disk.NewCrashBackend()
	res := Replay(counter, cfg, plan)
	if res.Err != nil {
		t.Fatalf("uncrashed replay failed: %v", res.Err)
	}
	total := counter.Ops()
	if total < int64(len(plan))/4 {
		t.Fatalf("workload produced only %d backend ops — too few crash points", total)
	}

	stride := int64(*strideFlag)
	if stride <= 0 {
		stride = 1
		if testing.Short() {
			stride = 17
		}
	}
	var points []int64
	for k := int64(0); k < total; k += stride {
		points = append(points, k)
	}
	t.Logf("seed=%d ops=%d end-steps=%d drops=%d backend-ops=%d ops/step=%.2f crash-points=%d (stride %d)",
		cfg.Seed, len(plan), steps, drops, total, float64(total)/float64(steps), len(points), stride)

	const shards = 8
	for shard := 0; shard < shards; shard++ {
		t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
			t.Parallel()
			for i := shard; i < len(points); i += shards {
				k := points[i]
				cb := disk.NewCrashBackend()
				cb.SetCrashPoint(k, true)
				res := Replay(cb, cfg, plan)
				if res.Err != nil {
					t.Fatalf("crash@%d seed=%d: replay: %v", k, cfg.Seed, res.Err)
				}
				if !cb.Crashed() {
					t.Fatalf("crash@%d seed=%d: crash point never fired (ops=%d)", k, cfg.Seed, cb.Ops())
				}
				// One crashed replay, verified under every recovery mode:
				// all unsynced writes lost, all kept (torn tail included),
				// and two adversarial per-file subsets.
				modes := []struct {
					name    string
					restart func(*disk.CrashBackend)
				}{
					{"drop", func(c *disk.CrashBackend) { c.Restart(false) }},
					{"keep", func(c *disk.CrashBackend) { c.Restart(true) }},
					{"subset-a", func(c *disk.CrashBackend) { c.RestartSubset(cfg.Seed ^ k) }},
					{"subset-b", func(c *disk.CrashBackend) { c.RestartSubset(cfg.Seed ^ k ^ 0x5bf03635) }},
				}
				for _, m := range modes {
					clone := cb.Clone()
					m.restart(clone)
					if err := Verify(clone, cfg, plan, res); err != nil {
						t.Errorf("crash@%d mode=%s seed=%d: %v\nreproduce: go test ./internal/crashtest -run TestCrashEveryPoint -crash.seed=%d -crash.ops=%d",
							k, m.name, cfg.Seed, err, cfg.Seed, cfg.Ops)
					}
				}
			}
		})
	}
}

// TestCleanShutdownRecovers pins the trivial end of the spectrum: a clean
// Close followed by a drop-unsynced restart must recover every step.
func TestCleanShutdownRecovers(t *testing.T) {
	cfg := harnessConfig()
	plan := BuildPlan(cfg)
	cb := disk.NewCrashBackend()
	res := Replay(cb, cfg, plan)
	if res.Err != nil {
		t.Fatalf("replay: %v", res.Err)
	}
	cb.Restart(false)
	if err := Verify(cb, cfg, plan, res); err != nil {
		t.Fatalf("recovery after clean shutdown: %v", err)
	}
}

// TestCrashSweepSyncMode runs a sampled sweep over a shorter plan than
// TestCrashEveryPoint's, with its own crash-point spacing, so the step and
// drop boundaries fall at other backend-op indices: every EndStep seals,
// writes its partition, runs the merges it makes due and commits, and a
// crash anywhere in that sequence must leave a recoverable prefix.
func TestCrashSweepSyncMode(t *testing.T) {
	cfg := Config{Seed: *seedFlag, Ops: 200}.WithDefaults()
	plan := BuildPlan(cfg)
	counter := disk.NewCrashBackend()
	if res := Replay(counter, cfg, plan); res.Err != nil {
		t.Fatalf("uncrashed replay failed: %v", res.Err)
	}
	total := counter.Ops()
	stride := int64(7)
	if testing.Short() {
		stride = 41
	}
	for k := int64(0); k < total; k += stride {
		cb := disk.NewCrashBackend()
		cb.SetCrashPoint(k, true)
		res := Replay(cb, cfg, plan)
		if res.Err != nil {
			t.Fatalf("crash@%d: replay: %v", k, res.Err)
		}
		for _, keep := range []bool{false, true} {
			clone := cb.Clone()
			clone.Restart(keep)
			if err := Verify(clone, cfg, plan, res); err != nil {
				t.Errorf("crash@%d keep=%v: %v", k, keep, err)
			}
		}
	}
}

// TestCrashSweepEviction repeats the crash sweep with a hydrated-engine
// budget of one: every stream switch in the plan forces a seal/evict of
// the previous stream and a rehydration of the next, so crash points land
// inside eviction checkpoints (the durable commit that seals an idle
// stream) and mid-hydration resumes — the lifecycle transitions the lazy
// directory added. The recovery contract is unchanged: eviction is a
// checkpoint, so a crash mid-evict or mid-rehydrate loses nothing beyond
// the usual in-flight batch.
func TestCrashSweepEviction(t *testing.T) {
	cfg := Config{Seed: *seedFlag, Ops: 200, MaxHydrated: 1}.WithDefaults()
	plan := BuildPlan(cfg)
	counter := disk.NewCrashBackend()
	if res := Replay(counter, cfg, plan); res.Err != nil {
		t.Fatalf("uncrashed replay failed: %v", res.Err)
	}
	total := counter.Ops()
	stride := int64(7)
	if testing.Short() {
		stride = 41
	}
	for k := int64(0); k < total; k += stride {
		cb := disk.NewCrashBackend()
		cb.SetCrashPoint(k, true)
		res := Replay(cb, cfg, plan)
		if res.Err != nil {
			t.Fatalf("crash@%d: replay: %v", k, res.Err)
		}
		for _, keep := range []bool{false, true} {
			clone := cb.Clone()
			clone.Restart(keep)
			if err := Verify(clone, cfg, plan, res); err != nil {
				t.Errorf("crash@%d keep=%v: %v", k, keep, err)
			}
		}
	}
}

// TestCrashSweepDeferredSidecar crashes at every backend operation of a plan
// that evicts under a budget of one and passes DB.Checkpoint every 20
// operations before the Close that ends it. An eviction's summary is held,
// and its SUMMARY.bin written only at the next barrier, so a crash leaves
// files behind the manifests: recovery must still hold every acknowledged
// step once (Verify), and each cold read must answer from a sidecar that
// matches its manifest or fall back once, counted. After the clean run's
// Close, a reopened DB reads every stream cold with no hydration and no
// fallback.
func TestCrashSweepDeferredSidecar(t *testing.T) {
	cfg := Config{Seed: *seedFlag, Ops: 100, MaxHydrated: 1}.WithDefaults()
	var plan []Op
	open := make(map[string]bool) // streams with an observe batch not yet ended
	for i, op := range BuildPlan(cfg) {
		if i > 0 && i%20 == 0 {
			plan = append(plan, Op{Checkpoint: true})
		}
		plan = append(plan, op)
		open[op.Stream] = op.Batch != nil
	}
	// Every step ends before the Close, so every observed value is durable;
	// TestCleanCloseWithOpenSteps runs the plan with its open steps left open.
	for i := 0; i < cfg.Streams; i++ {
		if open[streamName(i)] {
			plan = append(plan, Op{Stream: streamName(i)})
		}
	}
	counter := disk.NewCrashBackend()
	if res := Replay(counter, cfg, plan); res.Err != nil {
		t.Fatalf("uncrashed replay failed: %v", res.Err)
	}
	clean := counter.Clone()
	clean.Restart(false)
	db, err := hsq.Open(cfg.options(clean))
	if err != nil {
		t.Fatal(err)
	}
	names := db.Streams()
	for _, name := range names {
		if _, err := db.ScopedSummary(name, query.Scope{}); err != nil {
			t.Fatalf("cold read of %s after a clean Close: %v", name, err)
		}
	}
	if ds := db.DirectoryStats(); len(names) == 0 || ds.Hydrations != 0 || ds.SummaryFallbacks != 0 {
		t.Fatalf("cold reads of %d streams after a clean Close: %+v, want no hydration and no fallback", len(names), ds)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	total := counter.Ops()
	stride := int64(1)
	if testing.Short() {
		stride = 13
	}
	for k := int64(0); k < total; k += stride {
		cb := disk.NewCrashBackend()
		cb.SetCrashPoint(k, true)
		res := Replay(cb, cfg, plan)
		if res.Err != nil {
			t.Fatalf("crash@%d: replay: %v", k, res.Err)
		}
		for _, keep := range []bool{false, true} {
			clone := cb.Clone()
			clone.Restart(keep)
			if err := Verify(clone, cfg, plan, res); err != nil {
				t.Errorf("crash@%d keep=%v: %v", k, keep, err)
			}
		}
	}
}

// TestCleanCloseWithOpenSteps: a clean Close with steps still open leaves
// each stream's SUMMARY.bin holding the summary of its installed partitions,
// which is all its durable state, so after Open every cold read answers from
// the file — no hydration, no fallback — with the bytes the stream gives
// once hydrated. On this plan 2 of the 3 streams hold an open step at Close;
// a checkpoint that removed their files cost each a fallback hydration.
func TestCleanCloseWithOpenSteps(t *testing.T) {
	cfg := Config{Seed: 1, Ops: 100, MaxHydrated: 1}.WithDefaults()
	plan := BuildPlan(cfg)
	open := make(map[string]bool)
	for _, op := range plan {
		open[op.Stream] = op.Batch != nil
	}
	opened := 0
	for _, o := range open {
		if o {
			opened++
		}
	}
	if opened == 0 {
		t.Fatal("plan: no stream holds an open step at Close")
	}
	cb := disk.NewCrashBackend()
	if res := Replay(cb, cfg, plan); res.Err != nil {
		t.Fatalf("replay failed: %v", res.Err)
	}
	cb.Restart(false)
	db, err := hsq.Open(cfg.options(cb))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	names := db.Streams()
	cold := make(map[string][]byte)
	for _, name := range names {
		sum, err := db.ScopedSummary(name, query.Scope{})
		if err != nil {
			t.Fatalf("cold read of %s: %v", name, err)
		}
		cold[name] = sum.AppendBinary(nil)
	}
	if ds := db.DirectoryStats(); len(names) == 0 || ds.Hydrations != 0 || ds.SummaryFallbacks != 0 {
		t.Fatalf("cold reads of %d streams (%d with a step open at Close): %+v, want no hydration and no fallback", len(names), opened, ds)
	}
	for _, name := range names {
		st, err := db.Stream(name)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := st.Summary()
		if err != nil {
			t.Fatal(err)
		}
		if hot := sum.AppendBinary(nil); string(hot) != string(cold[name]) {
			t.Errorf("%s: the cold read's summary differs from the hydrated stream's", name)
		}
	}
}
