// Command hsqd exposes a multi-stream quantile DB over HTTP — a "data
// stream warehouse" service in the spirit of the paper's deployment setting
// (Figure 1): producers POST stream elements, a scheduler POSTs step
// boundaries, and dashboards GET quantiles. Many named streams (per-user
// latencies, per-endpoint sizes, ...) multiplex one storage backend, one
// block-cache budget and one manifest root; the DB resumes every stream
// automatically on restart.
//
// Endpoints:
//
//	GET    /streams                         list streams with per-stream stats
//	GET    /ingest                          ingest pipeline counters
//	DELETE /streams/{name}                  drop a stream and its on-disk state
//	POST   /streams/{name}/observe          body: newline-separated integers,
//	                                        or JSON {"values":[...]} (batched);
//	                                        a bad element applies nothing
//	POST   /streams/{name}/endstep          load the stream's batch (durable
//	                                        when the reply arrives)
//	GET    /streams/{name}/quantile?phi=0.99            one φ      → "value"
//	GET    /streams/{name}/quantiles?phi=0.5,0.95,0.99  several φ  → "values"
//	GET    /streams/{name}/rank?v=12345                 rank of v  → "rank", "total"
//	GET    /streams/{name}/stats
//	GET    /streams/{name}/maintenance    background-maintenance state
//	POST   /streams/{name}/maintenance    drain: install every sealed step now
//	POST   /query                         JSON plan over stream sets: globs,
//	                                      merge, group-by, windows, as-of
//
// The three read routes are one request (hsq.Request) and take the same
// optional parameters: quick=1 answers from the in-memory summaries only
// (error ≤ 1.5·ε·N, no disk reads), window=K restricts the scope to the
// last K steps plus the live stream (K from the stream's "windows" stat),
// max-reads=N caps the random block reads of the search ("truncated" in the
// /quantiles reply).
//
// Both write routes are one frame handed to ingest.Server.Write — the door
// wire frames come through — so a REST write is applied, tallied in GET
// /ingest, pushed to subscribers and, in a cluster, replicated or routed
// exactly as a wire write is.
//
// With -ingest-addr, hsqd additionally listens for the binary wire
// protocol (package hsqclient / internal/wire): length-prefixed frames
// carrying delta-compressed value batches, with session-replay
// exactly-once delivery and credit-window backpressure. That path is the
// intended front door for high-rate producers — the HTTP surface costs a
// request per (at best) a few thousand elements; the wire path sustains
// millions of elements per second per connection (ingest_values_per_s on
// benchmark/'s ingest_firehose workload).
//
// With -cluster-peers, hsqd joins a sharded deployment (internal/cluster):
// an explicit, epoch-numbered membership and a deterministic
// consistent-hash ring place each stream on an owner node plus -replicas−1
// followers. Every node is a full front door — writes for streams it does
// not store forward to the owning shard over the wire protocol (ack-gated;
// REST writes under the node's per-process origin session, split below the
// frame limit), and reads for such streams
// are answered from a member's shard summary: always quick, window= is
// refused (ask a member node) and max-reads is moot. A quantile over the
// union of streams, wherever their shards live, is the plan
// POST /query {"streams":["a","b"],"phis":[φ]}.
//
//	GET /cluster                            membership, placement, relay lag
//	GET /healthz                            liveness (no locks, fixed body)
//
// expose the cluster itself. All nodes must be started with the same
// -cluster-peers, -replicas and -ring-epoch values.
//
// An end-of-step seals the batch, installs it (sort, merges) and commits;
// queries and ingest on the stream keep answering — within ε — throughout.
// -maintenance picks who installs: the endstep request itself (sync, the
// default, and the mode benchmark/ measures) or a DB-wide worker pool
// (async), in which case endstep returns once the seal is durable, GET
// /streams also reports the scheduler (queued/running streams, aggregate
// merge debt) and -max-pending-steps bounds how far a stream may fall behind
// before endstep blocks (backpressure). Async shortens the endstep request,
// not reads or observes: go test -bench 'IngestStall|QueryDuringMerge' . at
// the repository root prints both modes side by side.
//
// Usage:
//
//	hsqd -dir /var/lib/hsq -epsilon 0.001 -kappa 10 -addr :8080
//	hsqd -backend mem -cache-blocks 1024 -epsilon 0.001    # volatile, no dir
//	hsqd -dir /var/lib/hsq -epsilon 0.001 -maintenance async -maint-workers 4
//	hsqd -dir /var/lib/hsq -epsilon 0.001 -ingest-addr :9090   # + wire ingest
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/ingest"
)

func main() {
	var (
		dir        = flag.String("dir", "", "warehouse directory (required for -backend file)")
		backend    = flag.String("backend", "file", "storage backend: file|mem")
		cache      = flag.Int("cache-blocks", 0, "shared block-cache capacity in blocks (0 = no cache)")
		epsilon    = flag.Float64("epsilon", 0.001, "approximation parameter ε")
		kappa      = flag.Int("kappa", 10, "merge threshold κ")
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		ingestAddr = flag.String("ingest-addr", "", "TCP listen address for the binary ingest protocol (hsqclient); empty = disabled")

		maintenance = flag.String("maintenance", "", "who installs sealed steps: sync (default: the endstep request), async (background scheduler), manual (drain on demand via POST maintenance); unset with -max-pending-steps > 0 selects async")
		maxPending  = flag.Int("max-pending-steps", 0, "async backpressure: sealed steps a stream may queue before endstep blocks (0 = default 4); > 0 alone turns async maintenance on")
		maintWork   = flag.Int("maint-workers", 0, "async scheduler worker pool size shared by all streams (0 = default 2)")
		maxHydrated = flag.Int("max-hydrated", 0, "hydrated-engine budget: streams resident in memory before LRU eviction seals idle ones (0 = unbounded)")
		probeMemo   = flag.Int("probe-memo-entries", 0, "per-snapshot rank-probe memo capacity: repeated queries against an unchanged stream resolve with no disk reads (0 = default 4096, negative = off)")

		nodeID     = flag.String("node-id", "", "this node's stable cluster ID (required with -cluster-peers)")
		peers      = flag.String("cluster-peers", "", "cluster membership: comma-separated id=host:port ingest addresses, self included; empty = single node")
		replicas   = flag.Int("replicas", 1, "cluster replication factor R: each stream lives on its owner plus R-1 followers")
		ringEpoch  = flag.Uint64("ring-epoch", 1, "cluster membership epoch; every node of a cluster must run the same value (GET /cluster reports it)")
		ingestIdle = flag.Duration("ingest-idle-timeout", 0, "drop ingest connections idle longer than this (0 = never)")
		summaryTTL = flag.Duration("summary-cache-ttl", 0, "peer shard-summary cache lifetime for coordinator reads; entries also drop on observed endstep traffic (0 = default 2s, negative = off)")
	)
	flag.Parse()
	if *dir == "" && *backend != "mem" {
		log.Fatal("hsqd: -dir is required for the file backend")
	}
	if *peers != "" {
		if *nodeID == "" {
			log.Fatal("hsqd: -cluster-peers requires -node-id")
		}
		if *ingestAddr == "" {
			log.Fatal("hsqd: -cluster-peers requires -ingest-addr (peers replicate and query over the wire protocol)")
		}
	}
	srv, err := newServer(serverConfig{
		dir: *dir, backend: *backend, cacheBlocks: *cache,
		epsilon: *epsilon, kappa: *kappa,
		maintenance: *maintenance, maxPending: *maxPending, maintWorkers: *maintWork,
		maxHydrated: *maxHydrated, probeMemo: *probeMemo,
		nodeID: *nodeID, clusterPeers: *peers, replicas: *replicas,
		ringEpoch: *ringEpoch, ingestIdle: *ingestIdle, summaryTTL: *summaryTTL,
		logf: log.Printf,
	})
	if err != nil {
		log.Fatalf("hsqd: %v", err)
	}

	// SIGINT/SIGTERM start a graceful shutdown: both listeners stop, HTTP
	// requests and ingest connections drain, and — crucially — db.Close()
	// runs, so the final checkpoint is never skipped. A second signal
	// kills the process the usual way (the signal context is released
	// before the drain begins).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *ingestAddr != "" {
		l, err := net.Listen("tcp", *ingestAddr)
		if err != nil {
			log.Fatalf("hsqd: ingest listener: %v", err)
		}
		srv.ingAddr = l.Addr().String()
		go func() {
			if err := srv.ing.Serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("hsqd: ingest listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.mux()}
	httpErr := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			httpErr <- err
		}
	}()
	log.Printf("hsqd: serving on %s (ingest=%s backend=%s dir=%s ε=%g κ=%d cache=%d maintenance=%s streams=%v)",
		*addr, orNone(srv.ingAddr), *backend, *dir, *epsilon, *kappa, *cache, srv.db.MaintenanceMode(), srv.db.Streams())
	if srv.cl != nil {
		ring := srv.cl.Ring()
		log.Printf("hsqd: cluster mode: node %s, epoch %d, replicas %d, %d members",
			srv.cl.Self().ID, ring.Epoch(), ring.Replicas(), len(ring.Nodes()))
	}

	exitCode := 0
	select {
	case err := <-httpErr:
		// Even a failed HTTP listener must not skip the drain + final
		// checkpoint: wire clients may already have delivered data.
		log.Printf("hsqd: HTTP server failed: %v", err)
		exitCode = 1
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C is immediate
	log.Print("hsqd: shutting down (draining connections, final checkpoint)")

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("hsqd: HTTP shutdown: %v", err)
	}
	if err := srv.ing.Shutdown(drainCtx); err != nil {
		log.Printf("hsqd: ingest shutdown: %v", err)
	}
	if srv.cl != nil {
		// After the ingest drain: no new frames can arrive, so stopping the
		// relays here abandons at most frames whose clients were never acked
		// (they replay against the surviving members).
		srv.cl.Close()
	}
	if err := srv.db.Close(); err != nil {
		log.Fatalf("hsqd: close DB: %v", err)
	}
	log.Print("hsqd: shutdown complete")
	os.Exit(exitCode)
}

// orNone renders an optional listen address for the startup log line.
func orNone(addr string) string {
	if addr == "" {
		return "off"
	}
	return addr
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("hsqd: encode response: %v", err)
	}
}

// handleStreams lists every registered stream with its counters —
// including its cumulative ingest tally — plus the shared device
// aggregate the per-stream counters sum to and a summary of the ingest
// listener. Engine counters (stream/hist/steps/partitions) are reported
// only for hydrated streams: a status poll must never hydrate a
// million-stream directory, so cold streams show "hydrated": false with
// their durable I/O counters and ingest tallies only.
func (s *server) handleStreams(w http.ResponseWriter, r *http.Request) {
	names := s.db.Streams()
	ing := s.ing.Stats()
	streams := make([]map[string]any, 0, len(names))
	for _, name := range names {
		st, ok := s.db.Lookup(name)
		if !ok {
			continue
		}
		io := st.DiskStats()
		tally := ing.Streams[name]
		hydrated := st.Hydrated()
		row := map[string]any{
			"name":             name,
			"hydrated":         hydrated,
			"io_seq_reads":     io.SeqReads,
			"io_seq_writes":    io.SeqWrites,
			"io_rand_reads":    io.RandReads,
			"io_cache_hits":    io.CacheHits,
			"ingest_values":    tally.Values,
			"ingest_batches":   tally.Batches,
			"ingest_end_steps": tally.EndSteps,
		}
		if hydrated {
			row["stream_count"] = st.StreamCount()
			row["hist_count"] = st.HistCount()
			row["steps"] = st.Steps()
			row["partitions"] = st.PartitionCount()
		}
		streams = append(streams, row)
	}
	agg := s.db.DiskStats()
	sched := s.db.SchedulerStats()
	dir := s.db.DirectoryStats()
	writeJSON(w, map[string]any{
		"streams": streams,
		"device": map[string]any{
			"io_seq_reads":  agg.SeqReads,
			"io_seq_writes": agg.SeqWrites,
			"io_rand_reads": agg.RandReads,
			"io_cache_hits": agg.CacheHits,
			"cache_blocks":  s.db.CacheBlocks(),
		},
		"scheduler": map[string]any{
			"workers":            sched.Workers,
			"queued_streams":     sched.QueuedStreams,
			"running_streams":    sched.RunningStreams,
			"pending_steps":      sched.PendingSteps,
			"merge_debt":         sched.MergeDebt,
			"installs":           sched.Installs,
			"merges":             sched.Merges,
			"maint_io_reads":     sched.MaintIO.SeqReads + sched.MaintIO.RandReads,
			"maint_io_writes":    sched.MaintIO.SeqWrites,
			"registered_streams": dir.Registered,
			"hydrated_streams":   dir.Hydrated,
			"hydrations":         dir.Hydrations,
			"evictions":          dir.Evictions,
			"summary_fallbacks":  dir.SummaryFallbacks,
		},
		"ingest": map[string]any{
			"listening":    s.ingAddr,
			"active_conns": ing.ActiveConns,
			"total_conns":  ing.TotalConns,
			"values":       ing.Values,
			"batches":      ing.Batches,
			"end_steps":    ing.EndSteps,
		},
	})
}

// handleIngest reports the ingest pipeline in full — ingest.Stats, whose
// json tags are the wire names, plus the listener address: aggregate
// frame/value counters, the cumulative per-stream tallies (batches, values
// and end-steps count REST writes too; frames, sessions and connections are
// the wire's) and every live connection (with its session token and applied
// sequence high-water mark, the replay cursor a reconnect resumes from).
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Listening string `json:"listening"`
		ingest.Stats
	}{s.ingAddr, s.ing.Stats()})
}

// handleMaintainNow drains the stream's sealed backlog synchronously
// (SyncMaintenance): every pending step is sorted, installed and committed
// before the response. This is the drain hook for -maintenance manual —
// without periodic drains a manual-mode stream buffers every sealed batch
// in memory — and a quiescence barrier for async streams.
func (s *server) handleMaintainNow(st *hsq.Stream, w http.ResponseWriter, r *http.Request) {
	if err := st.SyncMaintenance(); err != nil {
		httpError(w, http.StatusInternalServerError, "maintenance: %v", err)
		return
	}
	ms := st.MaintenanceStats()
	writeJSON(w, map[string]any{
		"stream":        st.Name(),
		"pending_steps": ms.PendingSteps,
		"installs":      ms.Installs,
		"merges":        ms.Merges,
	})
}

// handleMaintenance reports one stream's background-maintenance state:
// backlog, install/merge counters, backpressure and maintenance-attributed
// I/O.
func (s *server) handleMaintenance(st *hsq.Stream, w http.ResponseWriter, r *http.Request) {
	ms := st.MaintenanceStats()
	writeJSON(w, map[string]any{
		"stream":             st.Name(),
		"mode":               ms.Mode,
		"pending_steps":      ms.PendingSteps,
		"pending_elements":   ms.PendingElements,
		"running":            ms.Running,
		"installs":           ms.Installs,
		"merges":             ms.Merges,
		"install_ms":         ms.InstallTime.Milliseconds(),
		"backpressure_waits": ms.BackpressureWaits,
		"backpressure_ms":    ms.BackpressureTime.Milliseconds(),
		"maint_io_reads":     ms.MaintIO.SeqReads + ms.MaintIO.RandReads,
		"maint_io_writes":    ms.MaintIO.SeqWrites,
		"last_error":         ms.LastError,
	})
}

func (s *server) handleDeleteStream(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// DropStream resolves the name under the DB lock, so concurrent
	// deletes race safely: the loser gets ErrUnknownStream → 404.
	if err := s.db.DropStream(name); err != nil {
		if errors.Is(err, hsq.ErrUnknownStream) {
			httpError(w, http.StatusNotFound, "unknown stream %q", name)
			return
		}
		httpError(w, http.StatusInternalServerError, "drop stream %q: %v", name, err)
		return
	}
	writeJSON(w, map[string]any{"dropped": name, "streams": s.db.Streams()})
}

func (s *server) handleStreamStats(st *hsq.Stream, w http.ResponseWriter, r *http.Request) {
	mu := st.MemoryUsage()
	io := st.DiskStats() // per-stream: this stream's namespaced device view
	agg := s.db.DiskStats()
	pm := st.ProbeMemoStats()
	writeJSON(w, map[string]any{
		"stream":               st.Name(),
		"levels":               st.Describe(),
		"stream_count":         st.StreamCount(),
		"hist_count":           st.HistCount(),
		"total_count":          st.TotalCount(),
		"steps":                st.Steps(),
		"partitions":           st.PartitionCount(),
		"windows":              st.AvailableWindows(),
		"mem_hist":             mu.HistBytes,
		"mem_stream":           mu.StreamBytes,
		"io_seq_reads":         io.SeqReads,
		"io_seq_writes":        io.SeqWrites,
		"io_rand_reads":        io.RandReads,
		"io_cache_hits":        io.CacheHits,
		"io_cache_miss":        io.CacheMisses,
		"device_io_rand_reads": agg.RandReads,
		"probe_memo_hits":      pm.Hits,
		"probe_memo_misses":    pm.Misses,
		"probe_memo_entries":   pm.Entries,
		"probe_memo_capacity":  pm.Capacity,
	})
}
