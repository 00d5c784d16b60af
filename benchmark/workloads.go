package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/workload"
)

// Engine parameters every workload runs under (the paper's defaults).
const (
	epsilon = 0.001
	kappa   = 10
)

// runSeconds is BENCHMARK.json's run_seconds: the measured time of one
// workload at scale 1 on the sandbox the counts below were sized on. The
// work is fixed, not the time: -seconds only picks the scale.
const runSeconds = 20

// step is one time step of one stream: its values, then an EndStep.
type step struct {
	stream int // index into opSeq.streams
	values []int64
}

// readOp is one query: a quantile triple on one stream, or a merged plan.
type readOp struct {
	stream int       // index into opSeq.streams; -1 for a plan
	phis   []float64 // targets, also carried inside plan
	plan   []byte    // POST /query body; nil for a per-stream query
}

// opSeq is a workload's whole input, a pure function of (seed, scale).
type opSeq struct {
	spec    *workloadSpec
	streams []string
	setup   []step   // preload, applied and acknowledged before timing
	write   []step   // write phase
	read    []readOp // read phase (cycled while the writer runs, when live)
	verify  []readOp // quiesced verify phase
	hash    string
}

// workloadSpec is one traffic mix and the server settings it runs against.
type workloadSpec struct {
	name string
	why  string
	// cacheBlocks and maxHydrated are hsqd's -cache-blocks and
	// -max-hydrated (0 = hsqd's default); the in-process trace passes open
	// the DB with the same values.
	cacheBlocks int
	maxHydrated int
	// memBackend runs hsqd with -backend mem, and the in-process trace
	// passes on the heap backend: no file, no fsync.
	memBackend bool
	batch      int // hsqclient batch size
	// pollsPerStep makes the workload live: every step runs beside that many
	// of the read ops, and there is no read phase of its own.
	pollsPerStep int
	merged       bool // reads are merged plans: ⌈1.5·ε·N⌉ envelope
	build        func(q *seqBuilder)
}

func (w *workloadSpec) live() bool { return w.pollsPerStep > 0 }

func (w *workloadSpec) hsqdArgs() []string {
	var a []string
	if w.cacheBlocks > 0 {
		a = append(a, "-cache-blocks", fmt.Sprint(w.cacheBlocks))
	}
	if w.maxHydrated > 0 {
		a = append(a, "-max-hydrated", fmt.Sprint(w.maxHydrated))
	}
	if w.memBackend {
		a = append(a, "-backend", "mem")
	}
	return a
}

// The four workloads. Counts are for scale 1 (= runSeconds of measured
// time on the 2-core sandbox); each "why" is also BENCHMARK.json's.
var workloads = []*workloadSpec{
	{
		name:  "ingest_firehose",
		why:   "full 8192-value batches on two streams: wire decode, GK insert, sort, seal and k-way merge carry the time; reads price the layout ingest left behind",
		batch: 8192,
		build: func(q *seqBuilder) {
			normal := q.stream("fire.normal", workload.NewNormal(q.seed))
			uni := q.stream("fire.uniform", workload.NewUniform(q.seed+1))
			per := q.vals(4 * 8192) // four full frames a step
			for i := 0; i < q.steps(3, 1); i++ {
				q.setupStep(normal, per)
				q.setupStep(uni, per)
			}
			for i := 0; i < q.steps(36, 4); i++ {
				q.writeStep(normal, per)
				q.writeStep(uni, per)
			}
			for i := 0; i < q.steps(400, 16); i++ {
				q.query(normal, q.phiTriple())
			}
			q.verifyStreams(normal, uni)
		},
	},
	{
		name:        "endstep_fleet",
		why:         "256 streams, 1000-value steps, 64 hydrated, heap backend: the software cost of a step (session, directory, hydrate/evict, manifest) dominates; reads are merged group-by plans over summaries",
		maxHydrated: 64,
		memBackend:  true,
		batch:       2048,
		merged:      true,
		build: func(q *seqBuilder) {
			const hot = 48
			n := 256
			if q.scale < 0.125 {
				n = 96 // smoke scale: a short run that still evicts
			}
			g := workload.NewUniform(q.seed)
			ids := make([]int, n)
			for i := range ids {
				ids[i] = q.stream(fmt.Sprintf("fleet.r%d.s%d", i%8, i), g)
			}
			// Not scaled down: a merged answer over partitions much smaller
			// than 1/ε₁ leaves its ⌈1.5·ε·N⌉ envelope (see README).
			const per = 1000
			for _, id := range ids {
				q.setupStep(id, per)
			}
			for i := 0; i < q.steps(10000, 16); i++ {
				if q.rng.Float64() < 0.8 {
					q.writeStep(ids[q.rng.Intn(hot)], per)
				} else {
					q.writeStep(ids[hot+q.rng.Intn(n-hot)], per)
				}
			}
			phis := []float64{0.5, 0.9, 0.99}
			for i := 0; i < q.steps(24, 8); i++ {
				q.plan(`{"match":"fleet.**","group_by":2,"phis":[0.5,0.9,0.99]}`, phis)
			}
			q.verify = append(q.verify, q.read[0])
		},
	},
	{
		name:        "dashboard_cold",
		why:         "one deep stream many times the 32-block cache, distinct phi triples: BuildPieces, shared sweep, cursor descents, columnar decode and cache misses down to the backend do the work",
		cacheBlocks: 32,
		batch:       8192,
		build: func(q *seqBuilder) {
			lat := q.stream("dash.latency", workload.NewNormal(q.seed))
			dashboardSetup(q, lat)
			per := q.vals(40_000)
			for i := 0; i < q.steps(64, 8); i++ {
				q.writeStep(lat, per)
			}
			for i := 0; i < q.steps(400, 16); i++ {
				q.query(lat, q.phiTriple())
			}
			q.verifyStreams(lat)
		},
	},
	{
		name:         "dashboard_live",
		why:          "every step runs beside four polls of a two-panel dashboard on a stream that fits the cache: two cold, two memo-warm, each install invalidates them, so a read gain paid for by slower installs shows",
		cacheBlocks:  4096,
		batch:        8192,
		pollsPerStep: 4,
		build: func(q *seqBuilder) {
			lat := q.stream("dash.latency", workload.NewNormal(q.seed))
			dashboardSetup(q, lat)
			per := q.vals(20_000)
			// A dashboard of two panels refreshed twice a step: the first
			// poll of each after an install is cold, the second memo-warm.
			// The panels are the same for every seed, as a dashboard's are:
			// drawn from the seed, they touched a different share of the
			// store each time and the server's resident set followed
			// (33 to 44 MB over ten seeds).
			panel := [][]float64{{0.5, 0.9, 0.99}, {0.05, 0.25, 0.75}}
			for i := 0; i < q.steps(208, 8); i++ {
				q.writeStep(lat, per)
				for j := 0; j < 4; j++ {
					q.query(lat, panel[j%len(panel)])
				}
			}
			q.verifyStreams(lat)
		},
	},
}

// dashboardSetup preloads the deep store both dashboard workloads read:
// 12 steps, so one level-1 merge has happened and two level-0 partitions
// sit beside the merged one.
func dashboardSetup(q *seqBuilder, stream int) {
	per := q.vals(25_000)
	for i := 0; i < q.steps(12, 2); i++ {
		q.setupStep(stream, per)
	}
}

func workloadByName(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// verifyPhis are the targets of the quiesced verify phase.
var verifyPhis = []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}

// seqBuilder accumulates an opSeq. Step counts scale with the run length;
// step sizes stay at full size down to scale 1/8 (so a shortened run still
// pays the real per-step costs) and shrink below it (smoke tests).
type seqBuilder struct {
	opSeq
	seed  int64
	scale float64
	rng   *rand.Rand
	gens  []workload.Generator
}

func (q *seqBuilder) steps(base, floor int) int {
	n := int(math.Round(float64(base) * q.scale))
	if n < floor {
		n = floor
	}
	return n
}

func (q *seqBuilder) vals(base int) int {
	n := int(math.Round(float64(base) * math.Min(1, 8*q.scale)))
	if n < 50 {
		n = 50
	}
	return n
}

func (q *seqBuilder) stream(name string, g workload.Generator) int {
	q.streams = append(q.streams, name)
	q.gens = append(q.gens, g)
	return len(q.streams) - 1
}

func (q *seqBuilder) draw(stream, n int) step {
	return step{stream: stream, values: workload.Fill(q.gens[stream], n)}
}

func (q *seqBuilder) setupStep(stream, n int) { q.setup = append(q.setup, q.draw(stream, n)) }
func (q *seqBuilder) writeStep(stream, n int) { q.write = append(q.write, q.draw(stream, n)) }

// phiTriple draws three distinct sorted targets in (0.001, 0.999), at a
// resolution fine enough that no two triples of a run share a probe path.
func (q *seqBuilder) phiTriple() []float64 {
	phis := make([]float64, 3)
	for i := range phis {
		phis[i] = 0.001 + 0.998*float64(q.rng.Intn(1_000_000))/1_000_000
	}
	sort.Float64s(phis)
	return phis
}

func (q *seqBuilder) query(stream int, phis []float64) {
	q.read = append(q.read, readOp{stream: stream, phis: phis})
}

func (q *seqBuilder) plan(body string, phis []float64) {
	q.read = append(q.read, readOp{stream: -1, phis: phis, plan: []byte(body)})
}

func (q *seqBuilder) verifyStreams(streams ...int) {
	for _, s := range streams {
		q.verify = append(q.verify, readOp{stream: s, phis: verifyPhis})
	}
}

// buildOps generates the workload's op sequence for (seed, scale) and
// stamps it with a hash over every input the program will receive.
func buildOps(w *workloadSpec, seed int64, scale float64) *opSeq {
	q := &seqBuilder{seed: seed, scale: scale, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	q.spec = w
	w.build(q)
	q.hash = q.opSeq.digest()
	return &q.opSeq
}

// prefix cuts the write and read phases to their leading share (at least
// eight ops, at most maxSteps steps) and re-stamps the hash: the traced run
// replays a prefix of exactly the sequence the end-to-end run measures, on
// the same set-up.
func (o *opSeq) prefix(share float64, maxSteps int) {
	cut := func(n int) int { return min(n, max(8, int(math.Round(float64(n)*share)))) }
	o.write = o.write[:min(cut(len(o.write)), maxSteps)]
	if k := o.spec.pollsPerStep; k > 0 {
		o.read = o.read[:k*len(o.write)] // a live step's polls go with it
	} else {
		o.read = o.read[:cut(len(o.read))]
	}
	o.hash = o.digest()
}

func (o *opSeq) digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range o.streams {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	for _, phase := range [][]step{o.setup, o.write} {
		put(uint64(len(phase)))
		for _, st := range phase {
			put(uint64(st.stream))
			put(uint64(len(st.values)))
			for _, v := range st.values {
				put(uint64(v))
			}
		}
	}
	for _, phase := range [][]readOp{o.read, o.verify} {
		put(uint64(len(phase)))
		for _, r := range phase {
			put(uint64(int64(r.stream)))
			h.Write(r.plan)
			for _, p := range r.phis {
				put(math.Float64bits(p))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// values counts the values of a phase.
func countValues(steps []step) int {
	n := 0
	for _, s := range steps {
		n += len(s.values)
	}
	return n
}

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadBenchmarkJSON reads the contract file at the repository root.
func loadBenchmarkJSON(repo string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}
