package disk

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FileBackend stores each element file as a flat file inside a root
// directory — the seed's original (and the paper's implicit) storage model.
//
// Durability: writes land in the OS page cache and are flushed by Sync,
// which fsyncs every file written (and every directory whose entries
// changed) since the previous barrier. WriteMeta is crash-atomic: the new
// content is written to a temp file, fsynced, and renamed over the target,
// so a crash can expose the old or the new manifest but never a torn one.
type FileBackend struct {
	root string

	mu    sync.Mutex
	seq   uint64            // bumped by every markDirty batch
	dirty map[string]uint64 // path (file or dir) → seq of its latest mark
}

// NewFileBackend creates (if absent) and roots a backend at dir.
func NewFileBackend(dir string) (*FileBackend, error) {
	if dir == "" {
		return nil, fmt.Errorf("disk: file backend requires a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: create root: %w", err)
	}
	return &FileBackend{root: dir, dirty: make(map[string]uint64)}, nil
}

func (b *FileBackend) path(name string) string {
	return filepath.Join(b.root, filepath.FromSlash(name))
}

// markDirty records paths for fsync at the next Sync barrier. Each mark is
// versioned so a concurrent Sync never clears a mark added after it read
// the set.
func (b *FileBackend) markDirty(paths ...string) {
	b.mu.Lock()
	b.seq++
	for _, p := range paths {
		b.dirty[p] = b.seq
	}
	b.mu.Unlock()
}

// markDirtyChain marks the whole directory chain from path's parent up to
// (and including) the backend root. MkdirAll may have just created several
// levels of that chain, and a new directory is only durable once the entry
// naming it in its own parent is fsynced — all the way up.
func (b *FileBackend) markDirtyChain(path string) {
	var dirs []string
	root := filepath.Clean(b.root)
	for dir := filepath.Dir(filepath.Clean(path)); ; dir = filepath.Dir(dir) {
		dirs = append(dirs, dir)
		if dir == root || dir == filepath.Dir(dir) {
			break // reached the backend root (or, defensively, "/")
		}
	}
	b.markDirty(dirs...)
}

// ensureParent creates the parent directory chain of path, so namespaced
// names ("streams/api.latency/part-000001.dat") map onto subdirectories.
func ensureParent(path string) error {
	dir := filepath.Dir(path)
	if dir == "." || dir == "" {
		return nil
	}
	return os.MkdirAll(dir, 0o755)
}

// Open returns a random-access read handle for the named file.
func (b *FileBackend) Open(name string) (ReadHandle, error) {
	f, err := os.Open(b.path(name))
	if err != nil {
		return nil, err
	}
	return &fileReadHandle{f: f}, nil
}

// fileReadHandle adds handle-consistent sizing to *os.File: Size fstats the
// open descriptor, so it describes the file ReadAt reads.
type fileReadHandle struct {
	f *os.File
}

func (h *fileReadHandle) ReadAt(p []byte, off int64) (int, error) { return h.f.ReadAt(p, off) }
func (h *fileReadHandle) Close() error                            { return h.f.Close() }

func (h *fileReadHandle) Size() (int64, error) {
	fi, err := h.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Create truncates (or creates) the named file for appending, creating
// parent directories for namespaced names.
func (b *FileBackend) Create(name string) (WriteHandle, error) {
	path := b.path(name)
	if err := ensureParent(path); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// ensureParent may have created directories; their entries (all the way
	// up) must be flushed at the next barrier for the file to be reachable.
	b.markDirtyChain(path)
	return &fileWriteHandle{b: b, f: f, path: path}, nil
}

// Remove deletes the named file. The directory-entry change becomes durable
// at the next Sync.
func (b *FileBackend) Remove(name string) error {
	path := b.path(name)
	if err := os.Remove(path); err != nil {
		return err
	}
	b.markDirty(filepath.Dir(path))
	return nil
}

// Size returns the byte length of the named file.
func (b *FileBackend) Size(name string) (int64, error) {
	fi, err := os.Stat(b.path(name))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Exists reports whether the named file exists.
func (b *FileBackend) Exists(name string) bool {
	_, err := os.Stat(b.path(name))
	return err == nil
}

// WriteMeta atomically replaces a metadata file via write-to-temp + fsync +
// rename. The temp file is fsynced before the rename so a crash can never
// expose a torn manifest under the target name; the rename itself (the
// directory entry) becomes durable at the next Sync.
func (b *FileBackend) WriteMeta(name string, data []byte) error {
	path := b.path(name)
	if err := ensureParent(path); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()      //nolint:errcheck // already failing
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()      //nolint:errcheck // already failing
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	b.markDirtyChain(path)
	return nil
}

// ReadMeta reads a metadata file.
func (b *FileBackend) ReadMeta(name string) ([]byte, error) {
	return os.ReadFile(b.path(name))
}

// Sync fsyncs every file and directory written since the last barrier.
// Paths removed in the meantime are skipped: the removal itself was
// recorded as a dirty parent directory. A dirty entry is only cleared
// after its fsync succeeds (and only if it was not re-marked meanwhile),
// so a failed barrier leaves every unflushed path pending and a retrying
// Sync re-covers them — it can never report durability it did not achieve.
func (b *FileBackend) Sync() error {
	b.mu.Lock()
	pending := make(map[string]uint64, len(b.dirty))
	paths := make([]string, 0, len(b.dirty))
	for p, seq := range b.dirty {
		pending[p] = seq
		paths = append(paths, p)
	}
	b.mu.Unlock()
	// Sync deepest paths first so file contents are durable before the
	// directory entries that make them reachable.
	sort.Slice(paths, func(i, j int) bool { return len(paths[i]) > len(paths[j]) })
	for _, p := range paths {
		if err := fsyncPath(p); err != nil {
			return err
		}
		b.mu.Lock()
		if b.dirty[p] == pending[p] {
			delete(b.dirty, p)
		}
		b.mu.Unlock()
	}
	return nil
}

// fsyncPath fsyncs one file or directory; a vanished path is fine (its
// removal dirtied the parent directory, which is synced separately).
func fsyncPath(p string) error {
	f, err := os.Open(p)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("disk: sync %s: %w", p, err)
	}
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return fmt.Errorf("disk: sync %s: %w", p, serr)
	}
	if cerr != nil {
		return fmt.Errorf("disk: sync %s: %w", p, cerr)
	}
	return nil
}

// List walks the root and returns every file whose slash-separated name
// starts with prefix.
func (b *FileBackend) List(prefix string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(b.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // removed mid-walk
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(b.root, path)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(rel)
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("disk: list %q: %w", prefix, err)
	}
	sort.Strings(out)
	return out, nil
}

// fileWriteHandle adapts *os.File to WriteHandle with Abort support.
type fileWriteHandle struct {
	b    *FileBackend
	f    *os.File
	path string
}

func (h *fileWriteHandle) Write(p []byte) (int, error) { return h.f.Write(p) }

func (h *fileWriteHandle) Close() error {
	if err := h.f.Close(); err != nil {
		return err
	}
	// The finished file (and the directory entry that names it) must be
	// flushed at the next barrier.
	h.b.markDirty(h.path, filepath.Dir(h.path))
	return nil
}

func (h *fileWriteHandle) Abort() {
	h.f.Close()       //nolint:errcheck // best-effort discard
	os.Remove(h.path) //nolint:errcheck
}
