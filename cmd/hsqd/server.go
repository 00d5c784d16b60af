package main

import (
	"io"
	"net/http"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/ingest"
)

// server wraps a multi-stream DB behind the HTTP handlers plus the binary
// ingest pipeline. Kept separate from main.go so tests can construct it
// without binding a socket; the ingest server exists even when no
// -ingest-addr listener is bound (tests drive it through ServeConn, and
// GET /ingest always has a consistent shape).
type server struct {
	db  *hsq.DB
	ing *ingest.Server
	// cl is the cluster layer; nil in single-node mode. When set, writes
	// for streams this node does not store are routed to the owning shard
	// (by ing, which holds the same layer as its cluster hook) and reads for
	// them are answered from a member's shard summary.
	cl *cluster.Cluster
	// ingAddr is the bound ingest listener address ("" when the listener
	// is disabled). Written once before serving begins.
	ingAddr string
}

// serverConfig carries the engine knobs from flags (or tests) to newServer.
type serverConfig struct {
	dir          string
	backend      string
	cacheBlocks  int
	epsilon      float64
	kappa        int
	maintenance  string // "" or "sync" (hsq.Options.Maintenance)
	maxHydrated  int
	simulateDisk string                           // per-block latency profile: "", "ssd" or "hdd"
	logf         func(format string, args ...any) // ingest connection logs; nil = silent

	// Cluster mode (empty clusterPeers = single node).
	nodeID       string        // this node's ID; must appear in clusterPeers
	clusterPeers string        // id=host:port,... ingest addresses, self included
	replicas     int           // replication factor R (≥ 1)
	ringEpoch    uint64        // membership epoch (0 = 1)
	ingestIdle   time.Duration // drop idle ingest conns after this (0 = never)
}

// newServer opens a multi-stream DB on the configured backend, resuming
// every stream whose manifest the device holds. A warehouse an earlier
// release laid out (a root MANIFEST.json, or a root DB.json) is refused by
// hsq.Open, whose error gives the upgrade: re-ingest with this release.
func newServer(sc serverConfig) (*server, error) {
	db, err := hsq.Open(hsq.Options{
		Epsilon:            sc.epsilon,
		Kappa:              sc.kappa,
		Backend:            sc.backend,
		Dir:                sc.dir,
		CacheBlocks:        sc.cacheBlocks,
		Maintenance:        sc.maintenance,
		MaxHydratedStreams: sc.maxHydrated,
		SimulateDisk:       sc.simulateDisk,
	})
	if err != nil {
		return nil, err
	}
	icfg := ingest.Config{DB: db, Logf: sc.logf, IdleTimeout: sc.ingestIdle}
	var cl *cluster.Cluster
	if sc.clusterPeers != "" {
		cl, err = newCluster(sc)
		if err != nil {
			db.Close() //nolint:errcheck
			return nil, err
		}
		// The interface field is only assigned for a non-nil *Cluster: a
		// typed nil here would defeat the server's `cluster == nil` check.
		icfg.Cluster = cl
	}
	return &server{db: db, ing: ingest.New(icfg), cl: cl}, nil
}

// newCluster builds the cluster layer from the flag-shaped config: parse
// the explicit membership, build the placement ring, bind self.
func newCluster(sc serverConfig) (*cluster.Cluster, error) {
	nodes, err := cluster.ParsePeers(sc.clusterPeers)
	if err != nil {
		return nil, err
	}
	epoch := sc.ringEpoch
	if epoch == 0 {
		epoch = 1
	}
	ring, err := cluster.NewRing(cluster.Membership{Epoch: epoch, Replicas: sc.replicas, Nodes: nodes})
	if err != nil {
		return nil, err
	}
	return cluster.New(cluster.Config{Self: sc.nodeID, Ring: ring, Logf: sc.logf})
}

// streamHandler is an HTTP handler parameterized by the stream it operates
// on.
type streamHandler func(st *hsq.Stream, w http.ResponseWriter, r *http.Request)

// named adapts a streamHandler to a /streams/{name}/... route of an existing
// stream; a missing one is a 404.
func (s *server) named(h streamHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		st, ok := s.db.Lookup(name)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown stream %q", name)
			return
		}
		h(st, w, r)
	}
}

func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	// Liveness + cluster surface (shape is fixed even in single-node mode).
	m.HandleFunc("GET /healthz", s.handleHealthz)
	m.HandleFunc("GET /cluster", s.handleCluster)
	// Multi-stream surface. Writes and point reads route through the
	// cluster layer when one is configured; with cl == nil they collapse to
	// the original local-only behavior.
	m.HandleFunc("GET /streams", s.handleStreams)
	m.HandleFunc("GET /ingest", s.handleIngest)
	m.HandleFunc("POST /query", s.handleQuery)
	m.HandleFunc("DELETE /streams/{name}", s.handleDeleteStream)
	m.HandleFunc("POST /streams/{name}/observe", s.handleObserve)
	m.HandleFunc("POST /streams/{name}/endstep", s.handleEndStep)
	m.HandleFunc("GET /streams/{name}/quantile", s.read(routeQuantile))
	m.HandleFunc("GET /streams/{name}/quantiles", s.read(routeQuantiles))
	m.HandleFunc("GET /streams/{name}/rank", s.read(routeRank))
	m.HandleFunc("GET /streams/{name}/stats", s.named(s.handleStreamStats))
	m.HandleFunc("POST /streams/{name}/maintenance", s.named(s.handleMaintainNow))
	return m
}

// handleHealthz is the liveness probe: it touches no locks and no stats,
// so it answers even while ingest, maintenance and stats endpoints are
// busy. The body is fixed.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, "{\"status\":\"ok\"}\n") //nolint:errcheck
}

// handleCluster reports the cluster configuration and this node's view of
// it: membership epoch (mismatched epochs across nodes mean a botched
// rolling restart), placement counts for locally known streams, and the
// relay channels' replication lag (pending = frames applied here but not
// yet acknowledged by a follower).
func (s *server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cl == nil {
		writeJSON(w, map[string]any{"enabled": false})
		return
	}
	ring := s.cl.Ring()
	stored := make(map[string]int)
	owned := make(map[string]int)
	for _, name := range s.db.Streams() {
		for i, n := range ring.Members(name) {
			stored[n.ID]++
			if i == 0 {
				owned[n.ID]++
			}
		}
	}
	nodes := make([]map[string]any, 0, len(ring.Nodes()))
	for _, n := range ring.Nodes() {
		nodes = append(nodes, map[string]any{
			"id":             n.ID,
			"addr":           n.Addr,
			"streams_stored": stored[n.ID],
			"streams_owned":  owned[n.ID],
		})
	}
	writeJSON(w, map[string]any{
		"enabled":  true,
		"epoch":    ring.Epoch(),
		"replicas": ring.Replicas(),
		"self":     s.cl.Self().ID,
		"nodes":    nodes,
		"relays":   s.cl.Stats(),
	})
}
