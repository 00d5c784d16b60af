package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Layers a span can belong to, shallowest first. The order is the nesting
// order of the calls: the harness calls the client SDK or the DB's public
// API, and the DB calls the storage backend.
const (
	layerHarness = iota // the pass itself: time outside any call below
	layerClient         // hsqclient calls: ObserveSlice, EndStep, Flush
	layerHsq            // hsq public API calls made by the benchmark
	layerBackend        // disk.Backend calls seen by the decorator
	layerCount
)

var layerNames = [layerCount]string{"harness", "hsqclient", "hsq", "backend"}

// span is one timed call at a layer boundary. op is the closed-loop
// operation that caused it (its index in the pass's op sequence), or -1
// for backend calls, which run on the server's goroutines and are tied to
// their op by time: the loop is closed, so a backend call belongs to the
// op in flight.
type span struct {
	Layer int    `json:"layer"`
	Name  string `json:"name"`
	Op    int    `json:"op"`
	Start int64  `json:"start_ns"` // since the tracer's origin
	End   int64  `json:"end_ns"`
	N     int64  `json:"n,omitempty"` // bytes moved, for backend reads and writes
}

// tracer keeps spans in memory until the pass ends. A nil *tracer records
// nothing, which is how the untraced passes run the same code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	// Room for a full-scale pass, so appends never reallocate mid-phase.
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// record closes a span opened at start (a value from now).
func (t *tracer) record(layer int, name string, op int, start int64) {
	t.add(span{Layer: layer, Name: name, Op: op, Start: start})
}

// recordN closes a span that moved n bytes and belongs to no known op.
func (t *tracer) recordN(layer int, name string, start int64, n int) {
	t.add(span{Layer: layer, Name: name, Op: -1, Start: start, N: int64(n)})
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// window returns the spans of one layer that start inside [from, to).
func (t *tracer) window(layer int, from, to int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Layer == layer && s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes attributes every instant of [from, to) to the deepest layer
// with a span open at that instant, and returns the time per layer. This
// is "span duration minus the part its children cover", computed on the
// timeline so that spans from concurrent goroutines (the server's backend
// calls under the client's wait) nest by depth; the parts sum to to−from.
func (t *tracer) selfTimes(from, to int64) [layerCount]int64 {
	type edge struct {
		at    int64
		layer int
		open  bool
	}
	t.mu.Lock()
	edges := make([]edge, 0, 2*len(t.spans))
	for _, s := range t.spans {
		lo, hi := max(s.Start, from), min(s.End, to)
		if lo < hi {
			edges = append(edges, edge{lo, s.Layer, true}, edge{hi, s.Layer, false})
		}
	}
	t.mu.Unlock()
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })

	var self, open [layerCount]int64
	open[layerHarness] = 1 // the pass is the root span
	at := from
	for _, e := range edges {
		deepest := layerHarness
		for l := layerCount - 1; l > layerHarness; l-- {
			if open[l] > 0 {
				deepest = l
				break
			}
		}
		self[deepest] += e.at - at
		at = e.at
		if e.open {
			open[e.layer]++
		} else {
			open[e.layer]--
		}
	}
	self[layerHarness] += to - at
	return self
}

// dump writes the spans as one JSON document.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
