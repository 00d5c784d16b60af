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
// An EndStep seals its step, writes it once as its level-0 partition, runs
// the merges it makes due and commits them all at once, so the crash sweep
// lands inside step writes, merges and their one commit alike. EndStep's
// durability contract is that a nil return means the step survives any
// crash as a partition; the prefix-of-EndSteps guarantee asserts it.
//
// A step is sorted in memory, so its write is its partition file and
// nothing else: the sweep's crashes land in partition writes, never among
// sort temporaries, and Verify's orphan check proves no temporary of any
// kind survives a reopen.
//
// The plan also drops streams, and a later operation on a dropped stream
// re-creates it, so the sweep lands inside drop commits (the removal of the
// stream's manifest) and namespace sweeps too: a drop that returned is
// absent after the reopen, a re-created stream holds only the steps written
// after its re-creation, and a drop the crash interrupted leaves its stream
// absent or intact.
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
	"repro/internal/query"
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
	// MaxHydrated caps the DB's hydrated-engine budget
	// (Config.MaxHydratedStreams; 0 = unlimited). A cap of 1 with several
	// streams forces constant seal/evict/rehydrate churn, so the crash
	// sweep lands inside eviction checkpoints and rehydration resumes too.
	MaxHydrated int
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
	return c
}

func (c Config) options(cb *disk.CrashBackend) hsq.Options {
	return hsq.Options{
		Epsilon:            c.Epsilon,
		Kappa:              c.Kappa,
		Device:             cb,
		BlockSize:          c.BlockSize,
		MaxHydratedStreams: c.MaxHydrated,
	}
}

// Op is one workload operation on the named stream: an observe batch
// (Batch non-nil), an end step (Batch nil, !Drop) or a drop (Drop) of the
// stream. The next operation on a dropped stream re-creates it.
type Op struct {
	Stream string
	Batch  []int64
	Drop   bool
}

// BuildPlan generates the seeded workload plan: cfg.Ops operations
// interleaved across cfg.Streams streams, each stream drawing from one of
// the four paper workload generators. End steps are only emitted for
// streams with buffered data, so every EndStep in the plan loads a batch;
// drops only for streams that exist.
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
	exists := make([]bool, cfg.Streams)
	plan := make([]Op, 0, cfg.Ops)
	for len(plan) < cfg.Ops {
		s := rng.Intn(cfg.Streams)
		r := rng.Float64()
		switch {
		case r < 0.3 && pending[s] > 0:
			plan = append(plan, Op{Stream: streamName(s)})
			pending[s] = 0
		case r > 0.975 && exists[s]:
			plan = append(plan, Op{Stream: streamName(s), Drop: true})
			pending[s], exists[s] = 0, false
		default:
			n := 8 + rng.Intn(57)
			plan = append(plan, Op{Stream: streamName(s), Batch: workload.Fill(gens[s], n)})
			pending[s] += n
			exists[s] = true
		}
	}
	return plan
}

func streamName(i int) string { return fmt.Sprintf("s%d", i) }

// Result describes how far a replay got before the armed crash fired.
type Result struct {
	// Completed counts, per stream, the EndSteps that returned success since
	// the stream's last drop that returned success.
	Completed map[string]int
	// Dropped counts, per stream, the drops that returned success; Gone
	// marks the streams whose last operation was one of them.
	Dropped map[string]int
	Gone    map[string]bool
	// Inflight names the stream whose EndStep was running when the crash
	// fired ("" when the crash hit outside any EndStep).
	Inflight string
	// InflightDrop names the stream whose DropStream was running when the
	// crash fired.
	InflightDrop string
	// Err is the first non-crash error (a real bug), or nil.
	Err error
}

// Replay runs the plan over the backend until it finishes or the armed
// crash point freezes it. Only genuine failures land in Result.Err;
// ErrCrashed is the expected outcome of an armed replay.
func Replay(cb *disk.CrashBackend, cfg Config, plan []Op) Result {
	res := Result{Completed: make(map[string]int), Dropped: make(map[string]int), Gone: make(map[string]bool)}
	db, err := hsq.Open(cfg.options(cb))
	if err != nil {
		if !errors.Is(err, disk.ErrCrashed) {
			res.Err = fmt.Errorf("open: %w", err)
		}
		return res
	}
	for _, op := range plan {
		if op.Drop {
			if err := db.DropStream(op.Stream); err != nil {
				if !errors.Is(err, disk.ErrCrashed) {
					res.Err = fmt.Errorf("drop %s: %w", op.Stream, err)
				} else {
					res.InflightDrop = op.Stream
				}
				return res
			}
			res.Dropped[op.Stream]++
			res.Completed[op.Stream] = 0
			res.Gone[op.Stream] = true
			continue
		}
		delete(res.Gone, op.Stream) // this call may re-create it
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

// stepGroups reconstructs, per stream and per life of it (the first, then
// one after each drop), the batch sealed by each EndStep of the plan (the
// ground truth the recovered state must be a prefix of).
func stepGroups(plan []Op) map[string][][][]int64 {
	pending := make(map[string][]int64)
	groups := make(map[string][][][]int64)
	for _, op := range plan {
		lives := groups[op.Stream]
		if lives == nil {
			lives = [][][]int64{nil}
		}
		switch {
		case op.Batch != nil:
			pending[op.Stream] = append(pending[op.Stream], op.Batch...)
		case op.Drop:
			lives = append(lives, nil)
			pending[op.Stream] = nil
		default:
			lives[len(lives)-1] = append(lives[len(lives)-1], pending[op.Stream])
			pending[op.Stream] = nil
		}
		groups[op.Stream] = lives
	}
	return groups
}

// Verify reopens the DB on an already-restarted backend and checks the
// full recovery contract: the reopen succeeds, every stream's recovered
// history is exactly a prefix of its completed EndSteps since its last
// completed drop (at most one step ahead, when the crash interrupted a
// committed-but-unreturned EndStep; absent or all of them, when it
// interrupted a drop),
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

	// Cold summaries first, before the loop below hydrates anything, must
	// cover exactly the recovered steps: from the sidecar, or, where it does
	// not match the committed manifest, the fallback hydrates the stream.
	cold := make(map[string]*core.ShardSummary)
	for _, name := range db.Streams() {
		if cold[name], err = db.ScopedSummary(name, query.Scope{}); err != nil {
			return fmt.Errorf("stream %s: cold summary after recovery: %w", name, err)
		}
	}
	groups := stepGroups(plan)
	for i := 0; i < cfg.Streams; i++ {
		name := streamName(i)
		completed := res.Completed[name]
		st, ok := db.Lookup(name)
		if !ok {
			if completed > 0 && res.InflightDrop != name {
				return fmt.Errorf("stream %s: %d completed steps but stream missing after recovery", name, completed)
			}
			continue
		}
		if res.Gone[name] {
			return fmt.Errorf("stream %s: dropped, and back after recovery with %d steps", name, st.Steps())
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
		for _, g := range groups[name][res.Dropped[name]][:r] {
			want = append(want, g...)
		}
		sum, last := cold[name], 0
		if len(sum.Parts) > 0 {
			last = sum.Parts[len(sum.Parts)-1].EndStep
		}
		if sum.N != int64(len(want)) || last != r {
			return fmt.Errorf("stream %s: cold summary has N=%d through step %d, want N=%d through step %d", name, sum.N, last, len(want), r)
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

	// Per-stream recovery — sweeping install temporaries — runs at
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
// temporaries, as defined by the store itself. Partition files
// are checked against their stream's manifest instead, since committed
// partitions share the pattern.
var debrisPatterns = partition.TempFilePatterns()

// checkNoOrphans asserts that recovery garbage-collected every file a
// half-finished install left behind: no temporary debris anywhere, every
// partition file referenced by its stream's manifest, and no stream
// namespace outside the DB directory. Each stream's hydration collects its
// debris — Open itself collects only unregistered namespaces — so the
// caller must touch every stream before this check.
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
