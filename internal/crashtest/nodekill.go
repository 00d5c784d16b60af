package crashtest

import (
	"fmt"
	"math/rand"
	"time"

	hsq "repro"
	"repro/hsqclient"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// Node-kill mode: the cluster-level sibling of the disk crash sweep. Where
// the disk sweep kills a single process at every mutating backend
// operation and checks recovery from storage, the node-kill harness kills
// a whole NODE of a replicated cluster mid-ingest and checks recovery from
// the surviving replicas: the client fails over, replays its unacked
// window, and every surviving member ends with exactly-once application
// and ε-correct quantiles. Determinism comes from the seeded workload and
// the seeded kill point; the network interleaving is real (goroutines and
// sockets), so assertions are about end state, not operation traces.

// NodeKillConfig parametrizes one node-kill run.
type NodeKillConfig struct {
	// Seed drives workload values and the kill point.
	Seed int64
	// Nodes and Replicas shape the cluster (defaults: 3 nodes, R=2).
	Nodes    int
	Replicas int
	// Streams is the number of client streams fed concurrently (default 2).
	Streams int
	// Steps and BatchSize shape each stream's ingest (defaults 6 × 1500).
	Steps     int
	BatchSize int
	// Epsilon is the engine accuracy parameter (default 0.05).
	Epsilon float64
	// Logf receives harness progress lines when non-nil.
	Logf func(format string, args ...any)
}

// WithNodeKillDefaults fills zero fields.
func (c NodeKillConfig) WithNodeKillDefaults() NodeKillConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Streams == 0 {
		c.Streams = 2
	}
	if c.Steps == 0 {
		c.Steps = 6
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1500
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.05
	}
	return c
}

// RunNodeKill executes one seeded node-kill scenario and returns the first
// contract violation, or nil. The scenario: boot the cluster, feed every
// stream through one failover-capable client, kill the owner of stream 0
// at a seeded step boundary mid-run, keep feeding, flush, then verify on
// every surviving member of each stream: the stream materialized only on
// members, counts are exact (no loss, no duplication), step counts match,
// and quantiles stay within ε·N+1 of an exact oracle.
func RunNodeKill(cfg NodeKillConfig) error {
	cfg = cfg.WithNodeKillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	h, err := cluster.NewHarness(cluster.HarnessConfig{
		Nodes:    cfg.Nodes,
		Replicas: cfg.Replicas,
		Options: hsq.Options{
			Epsilon:         cfg.Epsilon,
			Kappa:           2,
			Backend:         "mem",
			Maintenance:     hsq.MaintenanceAsync,
			MaxPendingSteps: 1,
		},
		DownAfter: 300 * time.Millisecond,
		DownRetry: 500 * time.Millisecond,
		Logf:      cfg.Logf,
	})
	if err != nil {
		return err
	}
	defer h.Close()

	streams := make([]string, cfg.Streams)
	oracles := make([]*oracle.Oracle, cfg.Streams)
	gens := make([]workload.Generator, cfg.Streams)
	names := workload.Names()
	for i := range streams {
		streams[i] = fmt.Sprintf("kill-%d-%d", cfg.Seed, i)
		oracles[i] = oracle.New(cfg.Steps * cfg.BatchSize)
		g, err := workload.ByName(names[i%len(names)], cfg.Seed+int64(i))
		if err != nil {
			return err
		}
		gens[i] = g
	}

	// The victim owns stream 0; the kill fires at a seeded step boundary
	// strictly inside the run, so acked and in-flight data both exist.
	victim := -1
	for i, hn := range h.Nodes {
		if hn.Node.ID == h.Ring.Owner(streams[0]).ID {
			victim = i
		}
	}
	killAt := 1 + rng.Intn(cfg.Steps-1)

	c, err := hsqclient.Dial(h.Addrs(),
		hsqclient.WithBatchSize(256),
		hsqclient.WithSession(fmt.Sprintf("nodekill-%d", cfg.Seed)),
		hsqclient.WithReconnectBackoff(time.Millisecond, 50*time.Millisecond))
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck

	for step := 0; step < cfg.Steps; step++ {
		if step == killAt {
			if cfg.Logf != nil {
				cfg.Logf("killing node %s before step %d", h.Nodes[victim].Node.ID, step)
			}
			h.Kill(victim)
		}
		for i, name := range streams {
			vals := workload.Fill(gens[i], cfg.BatchSize)
			oracles[i].Add(vals...)
			if err := c.Stream(name).ObserveSlice(vals); err != nil {
				return fmt.Errorf("observe %s step %d: %w", name, step, err)
			}
			if err := c.Stream(name).EndStep(); err != nil {
				return fmt.Errorf("endstep %s step %d: %w", name, step, err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		return fmt.Errorf("final flush: %w", err)
	}

	for i, name := range streams {
		if err := verifyStream(h, victim, name, oracles[i], cfg); err != nil {
			return fmt.Errorf("stream %s (seed %d, killAt %d): %w", name, cfg.Seed, killAt, err)
		}
	}
	return nil
}

// verifyStream checks one stream's end state across the whole cluster.
func verifyStream(h *cluster.Harness, victim int, name string, or *oracle.Oracle, cfg NodeKillConfig) error {
	n := int64(cfg.Steps * cfg.BatchSize)
	bound := int64(cfg.Epsilon*float64(n)) + 1
	checked := 0
	for i, hn := range h.Nodes {
		member := h.Ring.IsMember(hn.Node.ID, name)
		st, ok := hn.DB.Lookup(name)
		if !member {
			if ok {
				return fmt.Errorf("materialized on non-member %s", hn.Node.ID)
			}
			continue
		}
		if i == victim {
			continue // killed mid-run; its copy is legitimately short
		}
		if !ok {
			return fmt.Errorf("missing on surviving member %s", hn.Node.ID)
		}
		if err := st.SyncMaintenance(); err != nil {
			return err
		}
		if got := st.TotalCount(); got != n {
			return fmt.Errorf("node %s: count %d, want %d (loss or duplication)", hn.Node.ID, got, n)
		}
		if got := st.Steps(); got != cfg.Steps {
			return fmt.Errorf("node %s: %d steps, want %d", hn.Node.ID, got, cfg.Steps)
		}
		for _, phi := range []float64{0.1, 0.5, 0.9} {
			v, _, err := st.Quantile(phi)
			if err != nil {
				return err
			}
			target, err := core.RankTarget(phi, n)
			if err != nil {
				return err
			}
			if spanErr := or.SpanError(target, v); spanErr > bound {
				return fmt.Errorf("node %s: quantile(%g)=%d rank error %d > ε·N=%d", hn.Node.ID, phi, v, spanErr, bound)
			}
		}
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("no surviving member verified")
	}
	return nil
}
