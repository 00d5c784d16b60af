package disk

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// ErrCrashed is the terminal error every operation returns after a
// CrashBackend's armed crash point fires: the simulated process is dead and
// all I/O freezes until Restart.
var ErrCrashed = errors.New("disk: simulated crash")

// CrashBackend is a deterministic crash-simulation backend: an in-memory
// store that models the volatile/durable split of a real device with a
// write-back cache.
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
	cur     map[string][]byte // volatile image
	dur     map[string][]byte // durable image (last Sync)
	ops     int64             // mutating operations so far
	crashAt int64             // absolute op index to crash on; <0 disarmed
	tear    bool              // apply a partial prefix when the crashing op is a write
	crashed bool
}

// NewCrashBackend returns an empty crash-simulation backend with no crash
// point armed.
func NewCrashBackend() *CrashBackend {
	return &CrashBackend{
		cur:     make(map[string][]byte),
		dur:     make(map[string][]byte),
		crashAt: -1,
	}
}

// Kind returns "crash".
func (b *CrashBackend) Kind() string { return "crash" }

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
		b.dur = snapshot(b.cur)
		return
	}
	b.cur = snapshot(b.dur)
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
	names := make(map[string]struct{}, len(b.cur)+len(b.dur))
	for n := range b.cur {
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
		c, inC := b.cur[n]
		d, inD := b.dur[n]
		if inC && inD && bytes.Equal(c, d) {
			next[n] = append([]byte(nil), c...)
			continue
		}
		if rng.Intn(2) == 0 {
			if inC {
				next[n] = append([]byte(nil), c...)
			}
		} else if inD {
			next[n] = append([]byte(nil), d...)
		}
	}
	b.cur = next
	b.dur = snapshot(next)
}

// Clone returns an independent deep copy of the backend — same images, op
// counter and crash state — so one crashed replay can be restarted and
// verified under several recovery modes.
func (b *CrashBackend) Clone() *CrashBackend {
	b.mu.Lock()
	defer b.mu.Unlock()
	return &CrashBackend{
		cur:     snapshot(b.cur),
		dur:     snapshot(b.dur),
		ops:     b.ops,
		crashAt: b.crashAt,
		tear:    b.tear,
		crashed: b.crashed,
	}
}

func snapshot(m map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(m))
	for k, v := range m {
		out[k] = append([]byte(nil), v...)
	}
	return out
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

// frozen reports (under b.mu) whether reads should fail: after the crash
// the process is gone, so even reads error until Restart.
func (b *CrashBackend) frozen() error {
	if b.crashed {
		return ErrCrashed
	}
	return nil
}

// Open returns a random-access read handle for the named file.
func (b *CrashBackend) Open(name string) (ReadHandle, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.frozen(); err != nil {
		return nil, err
	}
	if _, ok := b.cur[name]; !ok {
		return nil, fmt.Errorf("crash: open %s: file does not exist", name)
	}
	return &crashReadHandle{b: b, name: name}, nil
}

// Create truncates (or creates) the named file for appending.
func (b *CrashBackend) Create(name string) (WriteHandle, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, err := b.step(); err != nil {
		return nil, err
	}
	b.cur[name] = []byte{}
	return &crashWriteHandle{b: b, name: name}, nil
}

// Remove deletes the named file from the volatile image; the durable image
// forgets it at the next Sync.
func (b *CrashBackend) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, err := b.step(); err != nil {
		return err
	}
	if _, ok := b.cur[name]; !ok {
		return fmt.Errorf("crash: remove %s: file does not exist", name)
	}
	delete(b.cur, name)
	return nil
}

// Size returns the byte length of the named file.
func (b *CrashBackend) Size(name string) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.frozen(); err != nil {
		return 0, err
	}
	data, ok := b.cur[name]
	if !ok {
		return 0, fmt.Errorf("crash: stat %s: file does not exist", name)
	}
	return int64(len(data)), nil
}

// Exists reports whether the named file exists (in the volatile image).
func (b *CrashBackend) Exists(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.cur[name]
	return ok
}

// WriteMeta atomically replaces a metadata file: the crash point either
// fires before the replacement or the replacement lands whole.
func (b *CrashBackend) WriteMeta(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, err := b.step(); err != nil {
		return err
	}
	b.cur[name] = append([]byte(nil), data...)
	return nil
}

// ReadMeta reads a metadata file.
func (b *CrashBackend) ReadMeta(name string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.frozen(); err != nil {
		return nil, err
	}
	data, ok := b.cur[name]
	if !ok {
		return nil, fmt.Errorf("crash: read meta %s: file does not exist", name)
	}
	return append([]byte(nil), data...), nil
}

// Sync snapshots the volatile image into the durable one.
func (b *CrashBackend) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, err := b.step(); err != nil {
		return err
	}
	b.dur = snapshot(b.cur)
	return nil
}

// List returns the names of all files with the given prefix, sorted.
func (b *CrashBackend) List(prefix string) ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.frozen(); err != nil {
		return nil, err
	}
	var out []string
	for name := range b.cur {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

type crashReadHandle struct {
	b      *CrashBackend
	name   string
	closed bool
}

func (h *crashReadHandle) ReadAt(p []byte, off int64) (int, error) {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	if err := h.b.frozen(); err != nil {
		return 0, err
	}
	if h.closed {
		return 0, fmt.Errorf("crash: read from closed handle %s", h.name)
	}
	data, ok := h.b.cur[h.name]
	if !ok {
		return 0, fmt.Errorf("crash: read %s: file does not exist", h.name)
	}
	if off < 0 {
		return 0, fmt.Errorf("crash: negative offset %d", off)
	}
	if off >= int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *crashReadHandle) Size() (int64, error) {
	return h.b.Size(h.name)
}

func (h *crashReadHandle) Close() error {
	h.closed = true
	return nil
}

type crashWriteHandle struct {
	b      *CrashBackend
	name   string
	closed bool
}

func (h *crashWriteHandle) Write(p []byte) (int, error) {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	if h.closed {
		return 0, fmt.Errorf("crash: write to closed handle %s", h.name)
	}
	tear, err := h.b.step()
	if err != nil {
		if tear && len(p) > 0 {
			// Torn block: a misaligned prefix lands before the power dies.
			n := len(p) / 2
			if n%ElementSize == 0 && n+3 <= len(p) {
				n += 3
			}
			h.b.cur[h.name] = append(h.b.cur[h.name], p[:n]...)
		}
		return 0, err
	}
	h.b.cur[h.name] = append(h.b.cur[h.name], p...)
	return len(p), nil
}

func (h *crashWriteHandle) Close() error {
	h.closed = true
	return nil
}

func (h *crashWriteHandle) Abort() {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	h.closed = true
	if h.b.crashed {
		return // frozen: the file stays as the crash left it
	}
	delete(h.b.cur, h.name)
}
