package disk

import (
	"fmt"
	"io"
)

// Backend is the storage seam beneath a Manager: a flat namespace of element
// files accessed at block granularity. The Manager layers accounting, fault
// injection, latency simulation and the block cache on top of a Backend, so
// every higher layer (extsort, partition, core, the engine) is independent of
// where blocks physically live.
//
// Three implementations ship with the package: the file backend (a directory
// of flat files, NewFileBackend), MemBackend (a heap-resident map, for
// tests, benchmarks and cache simulation) and CrashBackend (MemBackend with a
// durable image and a crash point). All must satisfy the conformance suite in
// conformance_test.go.
//
// Handles returned by Open and Create are independent: concurrent readers of
// one file each get their own handle. Handles are not safe for concurrent use
// individually.
type Backend interface {
	// Open returns a random-access read handle for the named file.
	Open(name string) (ReadHandle, error)
	// Create truncates (or creates) the named file and returns an
	// append-only write handle.
	Create(name string) (WriteHandle, error)
	// Remove deletes the named file. Removing a non-existent file is an
	// error.
	Remove(name string) error
	// Size returns the byte length of the named file.
	Size(name string) (int64, error)
	// Exists reports whether the named file exists.
	Exists(name string) bool
	// WriteMeta atomically replaces the named metadata file (manifests,
	// small JSON). Metadata bypasses block accounting. The replacement must
	// be all-or-nothing even across a crash: after a restart the file holds
	// either the previous content or the new content in full, never a torn
	// mix (the file backend commits via write-temp → fsync → rename).
	// Durability of the new content is only guaranteed after a subsequent
	// Sync.
	WriteMeta(name string, data []byte) error
	// ReadMeta reads a metadata file written with WriteMeta.
	ReadMeta(name string) ([]byte, error)
	// Sync is the durability barrier: when it returns, every previously
	// completed write — data appended through a now-Closed WriteHandle,
	// WriteMeta replacements, Removes — survives a crash. Writes issued
	// after Sync returns carry no durability promise until the next Sync.
	Sync() error
	// List returns the names of all files (data and metadata) whose name
	// starts with prefix, in unspecified order. Used by crash recovery to
	// find orphaned files from half-finished installs.
	List(prefix string) ([]string, error)
}

// ReadHandle reads byte ranges of one file. ReadAt follows io.ReaderAt
// semantics: a read crossing EOF returns the available bytes with io.EOF.
// Size reports the current byte length of the file ReadAt reads.
//
// Recreating a name while a handle on it is open is unsupported: a file
// backend handle then reads the new content, a heap one the old. The store
// never reuses a name under a reader.
type ReadHandle interface {
	io.ReaderAt
	io.Closer
	Size() (int64, error)
}

// WriteHandle appends bytes to one file. Abort discards the file entirely
// (best-effort, used on failed writes); Close makes the written data
// durable-on-backend.
type WriteHandle interface {
	io.Writer
	io.Closer
	Abort()
}

// OpenBackend constructs a backend by kind: "file" (or "") rooted at dir, or
// "mem" (dir is ignored). It is the single resolution point for the
// --backend knobs exposed by hsq.Options, cmd/hsqd and cmd/hsqbench.
func OpenBackend(kind, dir string) (Backend, error) {
	switch kind {
	case "", "file":
		return NewFileBackend(dir)
	case "mem":
		return NewMemBackend(), nil
	default:
		return nil, fmt.Errorf("disk: unknown backend %q (want \"file\" or \"mem\")", kind)
	}
}
