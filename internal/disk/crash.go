package disk

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"sync"
)

// ErrCrashed is the terminal error every operation returns after a
// CrashBackend's armed crash point fires: the simulated process is dead and
// all I/O freezes until Restart.
var ErrCrashed = errors.New("disk: simulated crash")

// CrashBackend is a deterministic crash-simulation backend: the heap store
// (MemBackend) as the volatile image, plus what a crash adds to it — an
// operation counter, a crash point, a torn tail, the freeze after the crash
// and a durable image — modelling the volatile/durable split of a real device
// with a write-back cache.
//
// Every mutating operation — Create, each WriteHandle.Write (one per block
// at Manager granularity), Remove, WriteMeta, Sync — increments an
// operation counter. SetCrashPoint arms a crash at an absolute operation
// index: when the counter reaches it, that operation fails with ErrCrashed
// (a torn write may first apply a partial prefix), and every subsequent
// operation — reads included — fails with ErrCrashed too, as if the
// process died mid-commit.
//
// State lives in two images: the volatile image every operation reads and
// writes, and the durable image, which Sync overwrites with a snapshot of
// the volatile one. Restart simulates the power cycle: with keepUnsynced
// false the volatile image is discarded and the durable image becomes the
// new state (the "nothing unsynced survived" outcome); with keepUnsynced
// true the volatile image survives as-is, including the torn tail of an
// in-flight write (the "everything in the write cache landed" outcome).
// RestartSubset persists an arbitrary seeded per-file subset of the
// unsynced writes — the adversarial reordering outcome. A commit protocol
// is crash-consistent only if recovery succeeds under all of them.
//
// WriteMeta is atomic with respect to crashes, mirroring the file backend's
// fsync-temp-then-rename commit: the crash either happens before the
// replacement (old content everywhere) or after it (new content in the
// volatile image, old in the durable one until the next Sync) — never a
// torn manifest.
//
// Because the workload above it is deterministic, the operation sequence is
// too, so a harness can count total operations with one uncrashed run and
// then replay the workload crashing at every index. The same run sequence
// is reproduced no matter how often queries (reads) interleave: reads never
// advance the counter.
type CrashBackend struct {
	mu      sync.Mutex
	cur     *MemBackend       // volatile image
	dur     map[string][]byte // durable image (last Sync); replaced whole, never written in place
	ops     int64             // mutating operations so far
	crashAt int64             // absolute op index to crash on; <0 disarmed
	tear    bool              // apply a partial prefix when the crashing op is a write
	crashed bool
}

// NewCrashBackend returns an empty crash-simulation backend with no crash
// point armed.
func NewCrashBackend() *CrashBackend {
	return &CrashBackend{cur: NewMemBackend(), dur: map[string][]byte{}, crashAt: -1}
}

// SetCrashPoint arms a crash at the given absolute mutating-operation index
// (the op that would make Ops() == n+1 fails). tear makes the crashing
// operation, when it is a data write, apply a partial, element-misaligned
// prefix before dying — a torn block. n < 0 disarms.
func (b *CrashBackend) SetCrashPoint(n int64, tear bool) {
	b.mu.Lock()
	b.crashAt = n
	b.tear = tear
	b.mu.Unlock()
}

// Ops returns the number of mutating operations performed so far.
func (b *CrashBackend) Ops() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ops
}

// Crashed reports whether the armed crash point has fired.
func (b *CrashBackend) Crashed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.crashed
}

// Restart simulates the power cycle after a crash (or a clean process
// restart): the crash point is disarmed and I/O unfreezes. With
// keepUnsynced false the volatile image is replaced by the durable one —
// every write since the last Sync is lost. With keepUnsynced true the
// volatile image survives, torn tail included, and is adopted as durable.
func (b *CrashBackend) Restart(keepUnsynced bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.crashed = false
	b.crashAt = -1
	if keepUnsynced {
		b.dur = b.cur.image()
		return
	}
	b.cur = memFrom(b.dur)
}

// RestartSubset is the adversarial restart: every file whose volatile state
// differs from its durable state independently keeps or loses its unsynced
// version, chosen by the seeded coin. This models a device persisting
// cached writes in arbitrary order — the failure mode that exposes
// write-vs-commit reorderings a global all-or-nothing restart cannot (e.g.
// a manifest that became durable before the data it references). Each file
// still lands whole-or-old: sub-file interleavings are covered by the torn
// tail of the crashing write.
func (b *CrashBackend) RestartSubset(seed int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.crashed = false
	b.crashAt = -1
	cur := b.cur.image()
	names := make(map[string]struct{}, len(cur)+len(b.dur))
	for n := range cur {
		names[n] = struct{}{}
	}
	for n := range b.dur {
		names[n] = struct{}{}
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	rng := rand.New(rand.NewSource(seed))
	next := make(map[string][]byte, len(ordered))
	for _, n := range ordered {
		c, inC := cur[n]
		d, inD := b.dur[n]
		if inC && inD && bytes.Equal(c, d) {
			next[n] = c
			continue
		}
		if rng.Intn(2) == 0 {
			if inC {
				next[n] = c
			}
		} else if inD {
			next[n] = d
		}
	}
	b.cur = memFrom(next)
	b.dur = next
}

// Clone returns an independent copy of the backend — same images, op
// counter and crash state — so one crashed replay can be restarted and
// verified under several recovery modes.
func (b *CrashBackend) Clone() *CrashBackend {
	b.mu.Lock()
	defer b.mu.Unlock()
	return &CrashBackend{
		cur:     memFrom(b.cur.image()),
		dur:     b.dur,
		ops:     b.ops,
		crashAt: b.crashAt,
		tear:    b.tear,
		crashed: b.crashed,
	}
}

// step gates one mutating operation: it fails if the backend is crashed,
// fires the armed crash point when the counter reaches it, and otherwise
// advances the counter. It returns (tear, err); tear is true when this very
// operation crashed and should apply a torn prefix first. Caller holds b.mu.
func (b *CrashBackend) step() (bool, error) {
	if b.crashed {
		return false, ErrCrashed
	}
	if b.crashAt >= 0 && b.ops == b.crashAt {
		b.crashed = true
		return b.tear, ErrCrashed
	}
	b.ops++
	return false, nil
}

// live returns the volatile image for a read. After the crash the process
// is gone, so even reads fail until Restart.
func (b *CrashBackend) live() (*MemBackend, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.crashed {
		return nil, ErrCrashed
	}
	return b.cur, nil
}

// mutate counts one mutating operation (see step) and, unless it crashed,
// applies it to the volatile image.
func (b *CrashBackend) mutate(op func(cur *MemBackend) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, err := b.step(); err != nil {
		return err
	}
	return op(b.cur)
}

// Open returns a random-access read handle for the named file.
func (b *CrashBackend) Open(name string) (ReadHandle, error) {
	cur, err := b.live()
	if err != nil {
		return nil, err
	}
	h, err := cur.Open(name)
	if err != nil {
		return nil, err
	}
	return crashReadHandle{b, h}, nil
}

// Create truncates (or creates) the named file for appending.
func (b *CrashBackend) Create(name string) (WriteHandle, error) {
	var h WriteHandle
	err := b.mutate(func(cur *MemBackend) (err error) {
		h, err = cur.Create(name)
		return err
	})
	if err != nil {
		return nil, err
	}
	return crashWriteHandle{b, h}, nil
}

// Remove deletes the named file from the volatile image; the durable image
// forgets it at the next Sync.
func (b *CrashBackend) Remove(name string) error {
	return b.mutate(func(cur *MemBackend) error { return cur.Remove(name) })
}

// Size returns the byte length of the named file.
func (b *CrashBackend) Size(name string) (int64, error) {
	cur, err := b.live()
	if err != nil {
		return 0, err
	}
	return cur.Size(name)
}

// Exists reports whether the named file exists (in the volatile image).
func (b *CrashBackend) Exists(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cur.Exists(name)
}

// WriteMeta atomically replaces a metadata file: the crash point either
// fires before the replacement or the replacement lands whole.
func (b *CrashBackend) WriteMeta(name string, data []byte) error {
	return b.mutate(func(cur *MemBackend) error { return cur.WriteMeta(name, data) })
}

// ReadMeta reads a metadata file.
func (b *CrashBackend) ReadMeta(name string) ([]byte, error) {
	cur, err := b.live()
	if err != nil {
		return nil, err
	}
	return cur.ReadMeta(name)
}

// Sync snapshots the volatile image into the durable one.
func (b *CrashBackend) Sync() error {
	return b.mutate(func(cur *MemBackend) error {
		b.dur = cur.image()
		return nil
	})
}

// List returns the names of all files with the given prefix, sorted.
func (b *CrashBackend) List(prefix string) ([]string, error) {
	cur, err := b.live()
	if err != nil {
		return nil, err
	}
	return cur.List(prefix)
}

// crashReadHandle is a volatile-image read handle that freezes with the
// crash.
type crashReadHandle struct {
	b *CrashBackend
	ReadHandle
}

func (h crashReadHandle) ReadAt(p []byte, off int64) (int, error) {
	if _, err := h.b.live(); err != nil {
		return 0, err
	}
	return h.ReadHandle.ReadAt(p, off)
}

// crashWriteHandle is a volatile-image write handle whose every Write is one
// mutating operation, and the one that may tear.
type crashWriteHandle struct {
	b *CrashBackend
	WriteHandle
}

func (h crashWriteHandle) Write(p []byte) (int, error) {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	tear, err := h.b.step()
	if err != nil {
		if tear && len(p) > 0 {
			// Torn block: a misaligned prefix lands before the power dies.
			n := len(p) / 2
			if n%ElementSize == 0 && n+3 <= len(p) {
				n += 3
			}
			h.WriteHandle.Write(p[:n]) //nolint:errcheck // the crash is the error
		}
		return 0, err
	}
	return h.WriteHandle.Write(p)
}

func (h crashWriteHandle) Abort() {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	if !h.b.crashed { // frozen: the file stays as the crash left it
		h.WriteHandle.Abort()
	}
}
