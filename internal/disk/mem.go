package disk

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// MemBackend keeps every file in heap memory. It exists for fast tests and
// benchmarks, for cache-simulation experiments where real file I/O would
// drown the signal, and as the hot tier of future hybrid engines. Semantics
// mirror the file backend: Create truncates, writes become visible to
// readers as they land, readers opened at some length may read past it if
// the file has since grown (ReadAt is length-checked per call).
type MemBackend struct {
	mu    sync.RWMutex
	files map[string]*memFile
}

// memFile is one in-memory file. Its own lock serializes data access so a
// writer and independent readers can interleave like os file handles do.
type memFile struct {
	mu   sync.RWMutex
	data []byte
}

// NewMemBackend creates an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{files: make(map[string]*memFile)}
}

// Kind returns "mem".
func (b *MemBackend) Kind() string { return "mem" }

func (b *MemBackend) lookup(name string) (*memFile, error) {
	b.mu.RLock()
	f := b.files[name]
	b.mu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("mem: open %s: file does not exist", name)
	}
	return f, nil
}

// Open returns a random-access read handle for the named file.
func (b *MemBackend) Open(name string) (ReadHandle, error) {
	f, err := b.lookup(name)
	if err != nil {
		return nil, err
	}
	return &memReadHandle{f: f}, nil
}

// Create truncates (or creates) the named file for appending.
func (b *MemBackend) Create(name string) (WriteHandle, error) {
	f := &memFile{}
	b.mu.Lock()
	b.files[name] = f
	b.mu.Unlock()
	return &memWriteHandle{b: b, name: name, f: f}, nil
}

// Remove deletes the named file.
func (b *MemBackend) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.files[name]; !ok {
		return fmt.Errorf("mem: remove %s: file does not exist", name)
	}
	delete(b.files, name)
	return nil
}

// Size returns the byte length of the named file.
func (b *MemBackend) Size(name string) (int64, error) {
	f, err := b.lookup(name)
	if err != nil {
		return 0, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.data)), nil
}

// Exists reports whether the named file exists.
func (b *MemBackend) Exists(name string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.files[name]
	return ok
}

// WriteMeta replaces a metadata file (inherently atomic under the lock).
func (b *MemBackend) WriteMeta(name string, data []byte) error {
	b.mu.Lock()
	b.files[name] = &memFile{data: append([]byte(nil), data...)}
	b.mu.Unlock()
	return nil
}

// ReadMeta reads a metadata file.
func (b *MemBackend) ReadMeta(name string) ([]byte, error) {
	f, err := b.lookup(name)
	if err != nil {
		return nil, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]byte(nil), f.data...), nil
}

// Sync is a no-op: heap memory has no separate durable tier. (MemBackend
// state dies with the process regardless; CrashBackend models the volatile/
// durable split for crash simulation.)
func (b *MemBackend) Sync() error { return nil }

// List returns the names of all files with the given prefix, sorted.
func (b *MemBackend) List(prefix string) ([]string, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []string
	for name := range b.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// MemoryBytes returns the total bytes held across all files, for tests and
// capacity diagnostics.
func (b *MemBackend) MemoryBytes() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var n int64
	for _, f := range b.files {
		f.mu.RLock()
		n += int64(len(f.data))
		f.mu.RUnlock()
	}
	return n
}

type memReadHandle struct {
	f      *memFile
	closed bool
}

func (h *memReadHandle) ReadAt(p []byte, off int64) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("mem: read from closed handle")
	}
	h.f.mu.RLock()
	defer h.f.mu.RUnlock()
	if off < 0 {
		return 0, fmt.Errorf("mem: negative offset %d", off)
	}
	if off >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Size returns the current length of the file this handle references (the
// original memFile, even if the name has since been recreated).
func (h *memReadHandle) Size() (int64, error) {
	if h.closed {
		return 0, fmt.Errorf("mem: stat of closed handle")
	}
	h.f.mu.RLock()
	defer h.f.mu.RUnlock()
	return int64(len(h.f.data)), nil
}

func (h *memReadHandle) Close() error {
	h.closed = true
	return nil
}

type memWriteHandle struct {
	b      *MemBackend
	name   string
	f      *memFile
	closed bool
}

func (h *memWriteHandle) Write(p []byte) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("mem: write to closed handle %s", h.name)
	}
	h.f.mu.Lock()
	h.f.data = append(h.f.data, p...)
	h.f.mu.Unlock()
	return len(p), nil
}

func (h *memWriteHandle) Close() error {
	h.closed = true
	return nil
}

func (h *memWriteHandle) Abort() {
	h.closed = true
	h.b.mu.Lock()
	if h.b.files[h.name] == h.f {
		delete(h.b.files, h.name)
	}
	h.b.mu.Unlock()
}
