// Package crashtest is the deterministic crash-simulation harness for the
// warehouse's durability guarantee: a DB reopened after a crash recovers
// exactly a prefix of the time steps whose EndStep completed, with every
// quantile answer still within ε of ground truth.
//
// The harness builds a seeded multi-stream workload plan, replays it over a
// disk.CrashBackend once without crashing to count the backend's mutating
// operations, and then replays it again for every operation index, crashing
// there. After each crash the backend "restarts" in both adversarial modes —
// dropping every unsynced write, and keeping them all including the torn
// tail of the in-flight write — the DB is reopened, and the recovered state
// is checked against an exact oracle over the completed prefix. A final
// write/query round proves the recovered DB is live, not just readable.
//
// An EndStep seals its step and commits; the install — sort, level-0
// partition, level merges — is run by whoever the maintenance mode names.
// The harness covers the split while staying deterministic: streams run in
// "manual" maintenance mode by default, the plan interleaves explicit
// maintain operations that drain sealed backlogs, and the crash sweep
// therefore lands inside seal commits, scheduler-style installs, merge
// cascades and their commits alike; in "sync" mode the same install runs
// between each seal and its one commit. EndStep's durability contract is the
// same either way (a nil return means the step survives any crash: it is
// either a partition or a manifest-referenced spill), so the
// prefix-of-EndSteps guarantee is asserted identically.
//
// With the default sort memory every step of a plan sorts in memory.
// TestCrashSweepExternalSort shrinks it to one block (Config.SortMemElements)
// so crashes also land among sort temporaries — the sorted run files the
// external sort cuts a larger step into — and Verify's orphan check proves no
// sort-* file survives a reopen.
//
// Every run is reproducible from its (seed, crash index, restart mode)
// triple, which failures report.
package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"path"
	"strings"

	hsq "repro"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/workload"
)

// Config parametrizes one harness run.
type Config struct {
	// Seed drives the workload plan (values, batch sizes, interleaving).
	Seed int64
	// Ops is the number of workload operations (observe batches and end
	// steps) in the plan. The acceptance bar is ≥ 500.
	Ops int
	// Streams is the number of named streams the plan interleaves.
	Streams int
	// Epsilon and Kappa configure the DB under test.
	Epsilon float64
	Kappa   int
	// BlockSize is the device block size in bytes (small, so batches span
	// multiple blocks and crashes land inside multi-block writes).
	BlockSize int
	// Maintenance is the engine maintenance mode under test: "manual"
	// (default — installs run at the plan's deterministic drains) or "sync"
	// (each EndStep installs the step it sealed).
	Maintenance string
	// MaxHydrated caps the DB's hydrated-engine budget
	// (Config.MaxHydratedStreams; 0 = unlimited). A cap of 1 with several
	// streams forces constant seal/evict/rehydrate churn, so the crash
	// sweep lands inside eviction checkpoints and rehydration resumes too.
	MaxHydrated int
	// SortMemElements is the DB's batch-sort memory (hsq.Options field of the
	// same name; 0 = its 1 Mi default, which no plan's step exceeds). Set to
	// one block's worth of elements, every step larger than a block installs
	// through the external sort, so the sweep crashes among its run files.
	SortMemElements int
}

// WithDefaults fills zero fields with the harness defaults.
func (c Config) WithDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Ops == 0 {
		c.Ops = 520
	}
	if c.Streams == 0 {
		c.Streams = 3
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.05
	}
	if c.Kappa == 0 {
		c.Kappa = 3
	}
	if c.BlockSize == 0 {
		c.BlockSize = 512 // 64 elements per block
	}
	if c.Maintenance == "" {
		c.Maintenance = hsq.MaintenanceManual
	}
	return c
}

func (c Config) options(cb *disk.CrashBackend) hsq.Options {
	return hsq.Options{
		Epsilon:            c.Epsilon,
		Kappa:              c.Kappa,
		Device:             cb,
		BlockSize:          c.BlockSize,
		Maintenance:        c.Maintenance,
		MaxHydratedStreams: c.MaxHydrated,
		SortMemElements:    c.SortMemElements,
	}
}

// Op is one workload operation on the named stream: an observe batch
// (Batch non-nil), an end step (Batch nil, !Maintain), or a maintenance
// drain (Maintain) that installs every sealed step — the deterministic
// stand-in for the background scheduler's work.
type Op struct {
	Stream   string
	Batch    []int64
	Maintain bool
}

// BuildPlan generates the seeded workload plan: cfg.Ops operations
// interleaved across cfg.Streams streams, each stream drawing from one of
// the four paper workload generators. End steps are only emitted for
// streams with buffered data, so every EndStep in the plan loads a batch;
// maintain operations only for streams with a sealed backlog, so every
// drain installs at least one step. Backlogs are allowed to grow several
// steps deep before a drain, so the sweep crashes inside multi-step
// recoveries too.
func BuildPlan(cfg Config) []Op {
	rng := rand.New(rand.NewSource(cfg.Seed))
	gens := make([]workload.Generator, cfg.Streams)
	names := workload.Names()
	for i := range gens {
		g, err := workload.ByName(names[i%len(names)], cfg.Seed+int64(i))
		if err != nil {
			panic(err) // workload.Names entries always resolve
		}
		gens[i] = g
	}
	pending := make([]int, cfg.Streams)
	sealed := make([]int, cfg.Streams)
	plan := make([]Op, 0, cfg.Ops)
	for len(plan) < cfg.Ops {
		s := rng.Intn(cfg.Streams)
		r := rng.Float64()
		switch {
		case r < 0.3 && pending[s] > 0:
			plan = append(plan, Op{Stream: streamName(s)})
			pending[s] = 0
			sealed[s]++
		case r < 0.45 && sealed[s] > 0:
			plan = append(plan, Op{Stream: streamName(s), Maintain: true})
			sealed[s] = 0
		default:
			n := 8 + rng.Intn(57)
			plan = append(plan, Op{Stream: streamName(s), Batch: workload.Fill(gens[s], n)})
			pending[s] += n
		}
	}
	return plan
}

func streamName(i int) string { return fmt.Sprintf("s%d", i) }

// Result describes how far a replay got before the armed crash fired.
type Result struct {
	// Completed counts, per stream, the EndSteps that returned success.
	Completed map[string]int
	// Inflight names the stream whose EndStep was running when the crash
	// fired ("" when the crash hit outside any EndStep).
	Inflight string
	// Err is the first non-crash error (a real bug), or nil.
	Err error
}

// Replay runs the plan over the backend until it finishes or the armed
// crash point freezes it. Only genuine failures land in Result.Err;
// ErrCrashed is the expected outcome of an armed replay.
func Replay(cb *disk.CrashBackend, cfg Config, plan []Op) Result {
	res := Result{Completed: make(map[string]int)}
	db, err := hsq.Open(cfg.options(cb))
	if err != nil {
		if !errors.Is(err, disk.ErrCrashed) {
			res.Err = fmt.Errorf("open: %w", err)
		}
		return res
	}
	for _, op := range plan {
		st, err := db.Stream(op.Stream)
		if err != nil {
			if !errors.Is(err, disk.ErrCrashed) {
				res.Err = fmt.Errorf("stream %s: %w", op.Stream, err)
			}
			return res
		}
		if op.Batch != nil {
			st.ObserveSlice(op.Batch)
			continue
		}
		if op.Maintain {
			// Drain the sealed backlog — the deterministic equivalent of the
			// background scheduler's installs and merges. A crash here never
			// loses a step: every sealed step is already durable.
			if err := st.SyncMaintenance(); err != nil {
				if !errors.Is(err, disk.ErrCrashed) {
					res.Err = fmt.Errorf("maintain %s: %w", op.Stream, err)
				}
				return res
			}
			continue
		}
		if _, err := st.EndStep(); err != nil {
			if !errors.Is(err, disk.ErrCrashed) {
				res.Err = fmt.Errorf("endstep %s: %w", op.Stream, err)
			} else {
				res.Inflight = op.Stream
			}
			return res
		}
		res.Completed[op.Stream]++
	}
	// No crash so far (or it landed on a non-fatal post-commit cleanup op):
	// close cleanly so the counting run ends with a fully durable state. A
	// tail-end crash point can still fire inside Close's commit — that is a
	// crash outcome, not a bug.
	if !cb.Crashed() {
		if err := db.Close(); err != nil && !errors.Is(err, disk.ErrCrashed) {
			res.Err = fmt.Errorf("close: %w", err)
		}
	}
	return res
}

// stepGroups reconstructs, per stream, the batch sealed by each EndStep of
// the plan (the ground truth the recovered state must be a prefix of).
func stepGroups(plan []Op) map[string][][]int64 {
	pending := make(map[string][]int64)
	groups := make(map[string][][]int64)
	for _, op := range plan {
		if op.Batch != nil {
			pending[op.Stream] = append(pending[op.Stream], op.Batch...)
			continue
		}
		if op.Maintain {
			continue
		}
		groups[op.Stream] = append(groups[op.Stream], pending[op.Stream])
		pending[op.Stream] = nil
	}
	return groups
}

// Verify reopens the DB on an already-restarted backend and checks the
// full recovery contract: the reopen succeeds, every stream's recovered
// history is exactly a prefix of its completed EndSteps (at most one step
// ahead, when the crash interrupted a committed-but-unreturned EndStep),
// quantiles stay within ε of an exact oracle over that prefix, no orphan
// files survive, and the DB accepts new writes. The caller restarts the
// backend (Restart or RestartSubset) — typically on a Clone, so one
// crashed replay feeds several recovery modes.
func Verify(cb *disk.CrashBackend, cfg Config, plan []Op, res Result) error {
	db, err := hsq.Open(cfg.options(cb))
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	defer db.Close() //nolint:errcheck // best-effort; Close errors surface below

	groups := stepGroups(plan)
	for i := 0; i < cfg.Streams; i++ {
		name := streamName(i)
		completed := res.Completed[name]
		st, ok := db.Lookup(name)
		if !ok {
			if completed > 0 {
				return fmt.Errorf("stream %s: %d completed steps but stream missing after recovery", name, completed)
			}
			continue
		}
		r := st.Steps()
		switch {
		case r == completed:
		case r == completed+1 && res.Inflight == name:
			// The interrupted EndStep committed before the crash.
		default:
			return fmt.Errorf("stream %s: recovered %d steps, want %d (or %d if the in-flight step committed; inflight=%q)",
				name, r, completed, completed+1, res.Inflight)
		}
		var want []int64
		for _, g := range groups[name][:r] {
			want = append(want, g...)
		}
		if got := st.HistCount(); got != int64(len(want)) {
			return fmt.Errorf("stream %s: recovered %d elements, want %d (steps=%d)", name, got, len(want), r)
		}
		if got := st.StreamCount(); got != 0 {
			return fmt.Errorf("stream %s: recovered stream buffer has %d elements, want 0 (in-flight batches are volatile)", name, got)
		}
		if len(want) == 0 {
			continue
		}
		if err := checkQuantiles(st, want, cfg.Epsilon); err != nil {
			return fmt.Errorf("stream %s (recovered %d steps): %w", name, r, err)
		}
	}

	// Per-stream recovery — re-installing manifest-referenced sealed steps,
	// retiring their spills, sweeping install temporaries — runs at
	// hydration (Open loads only the directory), so the orphan check comes
	// after the loop above has touched every registered stream.
	if err := checkNoOrphans(cb); err != nil {
		return err
	}

	// The recovered DB must be live: accept a new batch, commit it, answer.
	st, err := db.Stream(streamName(0))
	if err != nil {
		return fmt.Errorf("post-recovery stream: %w", err)
	}
	fresh := make([]int64, 64)
	for i := range fresh {
		fresh[i] = int64(1000 + i)
	}
	st.ObserveSlice(fresh)
	if _, err := st.EndStep(); err != nil {
		return fmt.Errorf("post-recovery EndStep: %w", err)
	}
	if _, _, err := st.Quantile(0.5); err != nil {
		return fmt.Errorf("post-recovery quantile: %w", err)
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("post-recovery close: %w", err)
	}
	return nil
}

// checkQuantiles compares the stream's accurate quantiles against an exact
// oracle over want. With the stream buffer empty after recovery, Theorem
// 2's ε·m bound is ~0; ε·N is asserted to keep the check robust to
// bisection cutoffs.
func checkQuantiles(st *hsq.Stream, want []int64, eps float64) error {
	or := oracle.New(len(want))
	or.Add(want...)
	n := int64(len(want))
	bound := int64(eps*float64(n)) + 1
	for _, phi := range []float64{0.25, 0.5, 0.9, 0.99} {
		v, _, err := st.Quantile(phi)
		if err != nil {
			return fmt.Errorf("quantile(%g): %w", phi, err)
		}
		target, err := core.RankTarget(phi, n)
		if err != nil {
			return err
		}
		if spanErr := or.SpanError(target, v); spanErr > bound {
			return fmt.Errorf("quantile(%g) = %d: rank error %d exceeds ε·N = %d (N=%d)", phi, v, spanErr, bound, n)
		}
	}
	return nil
}

// debrisPatterns matches files that must never survive a recovery: install
// temporaries and spills, as defined by the store itself. Partition files
// are checked against their stream's manifest instead, since committed
// partitions share the pattern.
var debrisPatterns = partition.TempFilePatterns()

// checkNoOrphans asserts that recovery garbage-collected every file a
// half-finished install left behind: no temporary debris anywhere, every
// partition file referenced by its stream's manifest, and no stream
// namespace outside the DB directory. Raw spills never survive either:
// each stream's hydration re-installs its manifest-referenced sealed steps
// and retires their spills — Open itself collects only unregistered
// namespaces, so the caller must touch every stream before this check.
func checkNoOrphans(cb *disk.CrashBackend) error {
	names, err := cb.List("")
	if err != nil {
		return fmt.Errorf("list after recovery: %w", err)
	}
	// referenced[stream] = partition files the stream's manifest lists.
	referenced := make(map[string]map[string]bool)
	for _, name := range names {
		base := path.Base(name)
		for _, pat := range debrisPatterns {
			if ok, _ := path.Match(pat, base); ok {
				return fmt.Errorf("orphan debris survived recovery: %s", name)
			}
		}
		stream, file, ok := splitStreamFile(name)
		if !ok {
			continue
		}
		if ok, _ := path.Match("part-*.dat", file); !ok {
			continue
		}
		refs, err := loadRefs(cb, referenced, stream)
		if err != nil {
			return err
		}
		if !refs[file] {
			return fmt.Errorf("orphan partition survived recovery: %s (not in stream %s manifest)", name, stream)
		}
	}
	return nil
}

// splitStreamFile splits "streams/<stream>/<file>" into its parts.
func splitStreamFile(name string) (stream, file string, ok bool) {
	rest, found := strings.CutPrefix(name, "streams/")
	if !found {
		return "", "", false
	}
	stream, file, found = strings.Cut(rest, "/")
	return stream, file, found
}

func loadRefs(cb *disk.CrashBackend, cache map[string]map[string]bool, stream string) (map[string]bool, error) {
	if refs, ok := cache[stream]; ok {
		return refs, nil
	}
	refs := make(map[string]bool)
	data, err := cb.ReadMeta("streams/" + stream + "/MANIFEST.json")
	if err == nil {
		m, err := partition.ParseManifest(data)
		if err != nil {
			return nil, fmt.Errorf("stream %s manifest survived recovery but does not parse: %w", stream, err)
		}
		for _, pe := range m.Parts {
			refs[pe.Name] = true
		}
	}
	cache[stream] = refs
	return refs, nil
}
