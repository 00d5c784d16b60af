package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/disk"
	"repro/internal/gk"
	"repro/internal/mrl"
	"repro/internal/oracle"
	"repro/internal/qdigest"
	"repro/internal/sample"
	"repro/internal/workload"
)

// dataset is one generated evaluation dataset: T batches plus a final
// in-flight stream, with an exact oracle over the union. Datasets are
// generated once per (workload, seed) and shared across algorithms so every
// competitor sees identical data.
type dataset struct {
	name    string
	batches [][]int64
	stream  []int64
	orc     *oracle.Oracle
	bits    uint
}

// makeDataset draws a dataset for the given workload, seed and scale.
func makeDataset(wl string, seed int64, sc Scale) (*dataset, error) {
	gen, err := workload.ByName(wl, seed)
	if err != nil {
		return nil, err
	}
	ds := &dataset{name: wl, bits: gen.UniverseBits()}
	ds.orc = oracle.New(int(sc.TotalElements()))
	ds.batches = make([][]int64, sc.Steps)
	for i := range ds.batches {
		ds.batches[i] = workload.Fill(gen, sc.BatchSize)
		ds.orc.Add(ds.batches[i]...)
	}
	ds.stream = workload.Fill(gen, sc.StreamSize)
	ds.orc.Add(ds.stream...)
	return ds, nil
}

// --- memory planners for the pure-streaming baselines -----------------

// gkEpsForBudget inverts the GK memory model bytes = 24·(1/(2ε))·log₂(2εN)
// to find the ε a pure-streaming GK can afford within the budget.
func gkEpsForBudget(budget int64, n int64) float64 {
	f := func(eps float64) float64 {
		t := (1 / (2 * eps)) * math.Max(1, math.Log2(math.Max(2, 2*eps*float64(n))))
		return 24*t - float64(budget)
	}
	lo, hi := 1e-9, 0.5
	if f(hi) > 0 {
		return hi
	}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if f(mid) <= 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// qdigestEpsForBudget inverts the Q-Digest memory model. The asymptotic
// node count is bits/ε; our implementation's measured steady state is
// ≈3 nodes per bits/ε (sibling/parent slack) and the multiplicative
// compression trigger allows 2× growth between compressions, so we charge
// bytes = 6·48·(bits/ε) to keep the baseline honestly inside its budget at
// peak.
func qdigestEpsForBudget(budget int64, bits uint) float64 {
	eps := 6 * 48 * float64(bits) / float64(budget)
	if eps > 0.5 {
		eps = 0.5
	}
	if eps < 1e-9 {
		eps = 1e-9
	}
	return eps
}

// baselineResult reports one pure-streaming run.
type baselineResult struct {
	relErr    float64
	queryTime time.Duration
}

// streamingSketch is what every pure-streaming competitor offers: insert
// one element at a time, then answer a quantile.
type streamingSketch interface {
	Insert(v int64)
	Quantile(phi float64) (int64, bool)
}

// runBaseline feeds the entire dataset through one sketch and queries the
// target quantile: the one driver every pure-streaming competitor shares.
func runBaseline(ds *dataset, name string, s streamingSketch) (*baselineResult, error) {
	for _, b := range ds.batches {
		for _, v := range b {
			s.Insert(v)
		}
	}
	for _, v := range ds.stream {
		s.Insert(v)
	}
	t0 := time.Now()
	v, ok := s.Quantile(QueryPhi)
	res := &baselineResult{queryTime: time.Since(t0)}
	if !ok {
		return nil, fmt.Errorf("experiments: %s query failed", name)
	}
	res.relErr = ds.orc.RelativeSpanError(QueryPhi, v)
	return res, nil
}

// runGKBaseline runs one Greenwald-Khanna sketch sized for the budget (the
// paper's strongest pure-streaming competitor).
func runGKBaseline(ds *dataset, budget int64, n int64) (*baselineResult, error) {
	g, err := gk.New(gkEpsForBudget(budget, n))
	if err != nil {
		return nil, err
	}
	return runBaseline(ds, "GK", g)
}

// checkedDigest keeps the first value a Q-Digest refused as outside its
// universe.
type checkedDigest struct {
	*qdigest.Digest
	err error
}

func (d *checkedDigest) Insert(v int64) {
	if err := d.Digest.Insert(v); err != nil && d.err == nil {
		d.err = err
	}
}

// runQDigestBaseline is the Q-Digest pure-streaming competitor.
func runQDigestBaseline(ds *dataset, budget int64) (*baselineResult, error) {
	d, err := qdigest.New(qdigestEpsForBudget(budget, ds.bits), ds.bits)
	if err != nil {
		return nil, err
	}
	cd := &checkedDigest{Digest: d}
	res, err := runBaseline(ds, "QDigest", cd)
	if cd.err != nil {
		return nil, cd.err
	}
	return res, err
}

// runMRLBaseline is the MRL99-style multi-level buffer competitor
// (ablation; Wang et al.'s strongest randomized algorithm).
func runMRLBaseline(ds *dataset, budget int64, seed int64) (*baselineResult, error) {
	s, err := mrl.ForBudget(budget, seed)
	if err != nil {
		return nil, err
	}
	return runBaseline(ds, "MRL", s)
}

// runSampleBaseline is the RANDOM subsampling competitor (ablation).
func runSampleBaseline(ds *dataset, budget int64, seed int64) (*baselineResult, error) {
	s, err := sample.New(max(int(budget/8), 2), seed)
	if err != nil {
		return nil, err
	}
	return runBaseline(ds, "sample", s)
}

// --- warehouse loading for pure-streaming update-time comparison ------

// plainStore mimics the warehouse loading paradigm the paper applies to the
// pure-streaming competitors (Figure 6): new batches are written to disk and
// the same κ-leveled partitioning scheme merges them — but without sorting,
// since a streaming sketch does not need sorted partitions.
type plainStore struct {
	dev    *disk.Manager
	kappa  int
	levels [][]plainPart
	nextID int
}

type plainPart struct {
	name  string
	count int64
}

func newPlainStore(dev *disk.Manager, kappa int) *plainStore {
	return &plainStore{dev: dev, kappa: kappa}
}

// addBatch loads one batch; returns (load time, merge time, io delta).
func (s *plainStore) addBatch(data []int64) (load, merge time.Duration, io disk.Stats, err error) {
	before := s.dev.Stats()
	t0 := time.Now()
	name := fmt.Sprintf("plain-%06d.dat", s.nextID)
	s.nextID++
	w, err := s.dev.Create(name)
	if err != nil {
		return 0, 0, disk.Stats{}, err
	}
	if err := w.AppendSlice(data); err != nil {
		w.Abort()
		return 0, 0, disk.Stats{}, err
	}
	if err := w.Close(); err != nil {
		return 0, 0, disk.Stats{}, err
	}
	if len(s.levels) == 0 {
		s.levels = append(s.levels, nil)
	}
	s.levels[0] = append(s.levels[0], plainPart{name, int64(len(data))})
	load = time.Since(t0)

	t0 = time.Now()
	for lvl := 0; lvl < len(s.levels); lvl++ {
		if len(s.levels[lvl]) <= s.kappa {
			continue
		}
		if err := s.mergeLevel(lvl); err != nil {
			return 0, 0, disk.Stats{}, err
		}
	}
	merge = time.Since(t0)
	io = s.dev.Stats().Sub(before)
	return load, merge, io, nil
}

// mergeLevel concatenates all partitions of a level into one at the next
// level (sequential read + sequential write, no sort).
func (s *plainStore) mergeLevel(lvl int) error {
	group := s.levels[lvl]
	name := fmt.Sprintf("plain-%06d.dat", s.nextID)
	s.nextID++
	w, err := s.dev.Create(name)
	if err != nil {
		return err
	}
	var total int64
	for _, p := range group {
		r, err := s.dev.OpenSequential(p.name)
		if err != nil {
			w.Abort()
			return err
		}
		for {
			v, ok, err := r.Next()
			if err != nil {
				r.Close() //nolint:errcheck
				w.Abort()
				return err
			}
			if !ok {
				break
			}
			if err := w.Append(v); err != nil {
				r.Close() //nolint:errcheck
				w.Abort()
				return err
			}
			total++
		}
		if err := r.Close(); err != nil {
			w.Abort()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	for _, p := range group {
		if err := s.dev.Remove(p.name); err != nil {
			return err
		}
	}
	s.levels[lvl] = nil
	if lvl+1 >= len(s.levels) {
		s.levels = append(s.levels, nil)
	}
	s.levels[lvl+1] = append(s.levels[lvl+1], plainPart{name, total})
	return nil
}

// newDevice builds a block device for one baseline run, honoring the
// scale's backend selection.
func (s Scale) newDevice(dir string) (*disk.Manager, error) {
	b, err := disk.OpenBackend(s.Backend, dir)
	if err != nil {
		return nil, err
	}
	return disk.NewManagerOn(b, s.BlockSize)
}
