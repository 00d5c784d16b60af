package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	hsq "repro"
	"repro/internal/disk"
	"repro/internal/ingest"
)

// timingBackend decorates a storage backend: every call is a backend-layer
// span, with the bytes moved where there are any. It is the only
// instrumentation below the DB's public API, and it lives here, not in the
// program: hsq.Config.Device is the seam the repo provides for it.
type timingBackend struct {
	disk.Backend
	tr *tracer
}

func (b *timingBackend) Open(name string) (disk.ReadHandle, error) {
	t := b.tr.now()
	h, err := b.Backend.Open(name)
	b.tr.record(layerBackend, "Open", -1, t)
	if err != nil {
		return nil, err
	}
	return &timedReadHandle{h, b.tr}, nil
}

func (b *timingBackend) Create(name string) (disk.WriteHandle, error) {
	t := b.tr.now()
	h, err := b.Backend.Create(name)
	b.tr.record(layerBackend, "Create", -1, t)
	if err != nil {
		return nil, err
	}
	return &timedWriteHandle{h, b.tr}, nil
}

func (b *timingBackend) Remove(name string) error {
	t := b.tr.now()
	defer b.tr.record(layerBackend, "Remove", -1, t)
	return b.Backend.Remove(name)
}

func (b *timingBackend) WriteMeta(name string, data []byte) error {
	t := b.tr.now()
	defer b.tr.recordN(layerBackend, "WriteMeta", t, len(data))
	return b.Backend.WriteMeta(name, data)
}

func (b *timingBackend) ReadMeta(name string) ([]byte, error) {
	t := b.tr.now()
	data, err := b.Backend.ReadMeta(name)
	b.tr.recordN(layerBackend, "ReadMeta", t, len(data))
	return data, err
}

func (b *timingBackend) Sync() error {
	t := b.tr.now()
	defer b.tr.record(layerBackend, "Sync", -1, t)
	return b.Backend.Sync()
}

type timedReadHandle struct {
	disk.ReadHandle
	tr *tracer
}

func (h *timedReadHandle) ReadAt(p []byte, off int64) (int, error) {
	t := h.tr.now()
	n, err := h.ReadHandle.ReadAt(p, off)
	h.tr.recordN(layerBackend, "ReadAt", t, n)
	return n, err
}

type timedWriteHandle struct {
	disk.WriteHandle
	tr *tracer
}

func (h *timedWriteHandle) Write(p []byte) (int, error) {
	t := h.tr.now()
	n, err := h.WriteHandle.Write(p)
	h.tr.recordN(layerBackend, "Write", t, n)
	return n, err
}

func (h *timedWriteHandle) Close() error {
	t := h.tr.now()
	defer h.tr.record(layerBackend, "Close", -1, t)
	return h.WriteHandle.Close()
}

// inproc is the full stack in this process: the DB on the backend the
// workload's hsqd runs on (files in dir, or the heap), the ingest server on
// a loopback socket. With a tracer the backend is wrapped in the timing
// decorator; without, it is used as it is (the untraced pass).
type inproc struct {
	db     *hsq.DB
	ing    *ingest.Server
	addr   string
	served chan error
}

func openInproc(dir string, w *workloadSpec, tr *tracer) (*inproc, error) {
	var dev disk.Backend = disk.NewMemBackend()
	if !w.memBackend {
		fb, err := disk.NewFileBackend(dir)
		if err != nil {
			return nil, err
		}
		dev = fb
	}
	if tr != nil {
		dev = &timingBackend{Backend: dev, tr: tr}
	}
	db, err := hsq.Open(hsq.Options{
		Epsilon: epsilon, Kappa: kappa, Device: dev, Maintenance: "sync",
		CacheBlocks: w.cacheBlocks, MaxHydratedStreams: w.maxHydrated,
	})
	if err != nil {
		return nil, fmt.Errorf("open DB on %s: %w", dir, err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close() //nolint:errcheck // already failing
		return nil, err
	}
	p := &inproc{db: db, ing: ingest.New(ingest.Config{DB: db}), addr: l.Addr().String(), served: make(chan error, 1)}
	go func() { p.served <- p.ing.Serve(l) }()
	return p, nil
}

// close drains the ingest server, waits for its accept loop and closes
// the DB (final checkpoint).
func (p *inproc) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := p.ing.Shutdown(ctx)
	if serr := <-p.served; serr != nil && !errors.Is(serr, net.ErrClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, p.db.Close())
}
