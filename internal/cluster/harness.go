package cluster

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro"
	"repro/internal/ingest"
)

// HarnessNode is one in-process cluster node: an hsq.DB, its ingest
// server, and the node's cluster layer, bound to a real TCP listener.
type HarnessNode struct {
	Node    Node
	DB      *hsq.DB
	Server  *ingest.Server
	Cluster *Cluster

	ln     net.Listener
	killed bool
}

// Harness is an in-process N-node hsqd cluster over real sockets — the
// fixture behind the cluster end-to-end tests, the crash tester's
// node-kill mode, and the cluster experiment. It is NOT a production
// deployment path; cmd/hsqd wires the same pieces for real processes.
type Harness struct {
	Ring  *Ring
	Nodes []*HarnessNode
}

// HarnessConfig parametrizes NewHarness.
type HarnessConfig struct {
	// Nodes is the cluster size. Required (≥ 1).
	Nodes int
	// Replicas is the replication factor (default 1: no replication).
	Replicas int
	// Options configures each node's DB; Backend defaults to "mem".
	Options hsq.Options
	// DownAfter/DownRetry tune the relay give-up clocks (defaults are the
	// cluster package defaults — usually too slow for tests).
	DownAfter time.Duration
	DownRetry time.Duration
	// Logf receives node-prefixed log lines when non-nil.
	Logf func(format string, args ...any)
}

// NewHarness boots an N-node cluster on loopback listeners. Callers must
// Close it.
func NewHarness(cfg HarnessConfig) (*Harness, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: harness needs ≥ 1 node, got %d", cfg.Nodes)
	}
	if cfg.Options.Backend == "" {
		cfg.Options.Backend = "mem"
	}
	h := &Harness{}
	fail := func(err error) (*Harness, error) {
		h.Close()
		return nil, err
	}

	// Listeners first: the membership needs every node's address.
	var members []Node
	for i := 0; i < cfg.Nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		id := fmt.Sprintf("n%d", i)
		members = append(members, Node{ID: id, Addr: ln.Addr().String()})
		h.Nodes = append(h.Nodes, &HarnessNode{ln: ln})
	}
	ring, err := NewRing(Membership{Epoch: 1, Replicas: cfg.Replicas, Nodes: members})
	if err != nil {
		return fail(err)
	}
	h.Ring = ring

	for i, hn := range h.Nodes {
		hn.Node = members[i]
		logf := func(string, ...any) {}
		if cfg.Logf != nil {
			id := hn.Node.ID
			logf = func(format string, args ...any) { cfg.Logf("["+id+"] "+format, args...) }
		}
		db, err := hsq.Open(cfg.Options)
		if err != nil {
			return fail(err)
		}
		hn.DB = db
		cl, err := New(Config{
			Self:      hn.Node.ID,
			Ring:      ring,
			DownAfter: cfg.DownAfter,
			DownRetry: cfg.DownRetry,
			Logf:      logf,
		})
		if err != nil {
			return fail(err)
		}
		hn.Cluster = cl
		hn.Server = ingest.New(ingest.Config{DB: db, Cluster: cl, Logf: logf})
		go hn.Server.Serve(hn.ln) //nolint:errcheck
	}
	return h, nil
}

// Addrs returns every node's listen address, comma-joined — ready to hand
// to hsqclient.Dial for failover.
func (h *Harness) Addrs() string {
	s := ""
	for i, hn := range h.Nodes {
		if i > 0 {
			s += ","
		}
		s += hn.Node.Addr
	}
	return s
}

// Kill simulates node i crashing: its listener closes, every live
// connection is cut, and its outgoing relay channels stop. The node's DB
// stays readable (the process in this harness is shared), but nothing
// reaches it over the network anymore. Killing is permanent for the
// harness's lifetime.
func (h *Harness) Kill(i int) {
	hn := h.Nodes[i]
	if hn.killed {
		return
	}
	hn.killed = true
	if hn.ln != nil {
		hn.ln.Close() //nolint:errcheck
	}
	if hn.Server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		hn.Server.Shutdown(ctx) //nolint:errcheck
		cancel()
	}
	if hn.Cluster != nil {
		hn.Cluster.Close()
	}
}

// Close tears the whole cluster down.
func (h *Harness) Close() {
	for i := range h.Nodes {
		h.Kill(i)
	}
	for _, hn := range h.Nodes {
		if hn.DB != nil {
			hn.DB.Close() //nolint:errcheck
		}
	}
}
