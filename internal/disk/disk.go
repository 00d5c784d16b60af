// Package disk provides the block-device substrate used by the historical
// store. All persistent data in this system is a flat file of little-endian
// int64 elements, accessed at block granularity. The package counts every
// block-level operation, split into sequential and random accesses, because
// "number of disk accesses" is the primary cost metric of the paper's
// evaluation (Lemmas 6 and 7, Figures 6-13).
//
// Storage is pluggable: the Manager layers accounting, fault injection,
// latency simulation and an optional sharded LRU block cache over a Backend
// (see backend.go). The file backend reproduces the seed's directory-of-flat-
// files layout; MemBackend keeps everything in heap memory.
//
// The default block size is 100 KB, the value assumed throughout the paper's
// experiments, giving 12,800 elements per block.
package disk

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// ElementSize is the on-disk size of one element in bytes.
const ElementSize = 8

// DefaultBlockSize is the paper's block size B (100 KB).
const DefaultBlockSize = 100 * 1024

// MergeReadahead is the sequential readahead, in blocks, that merge and
// copy scans pass to Reader.SetReadahead: each run refill becomes one
// backend call covering several blocks. Block accounting is unchanged —
// readahead batches calls, it does not hide reads.
const MergeReadahead = 4

// Op identifies the kind of block operation, used by fault hooks and stats.
type Op int

const (
	// OpSeqRead is a sequential block read (scans, merges).
	OpSeqRead Op = iota
	// OpSeqWrite is a sequential block write (loading, merging, sorting).
	OpSeqWrite
	// OpRandRead is a random block read (query-time binary search).
	OpRandRead
	// OpOpen is a file open.
	OpOpen
	// OpMetaWrite is an atomic metadata replacement (manifest commit).
	OpMetaWrite
	// OpSync is a durability barrier.
	OpSync
)

// String returns a human-readable operation name.
func (o Op) String() string {
	switch o {
	case OpSeqRead:
		return "seq-read"
	case OpSeqWrite:
		return "seq-write"
	case OpRandRead:
		return "rand-read"
	case OpOpen:
		return "open"
	case OpMetaWrite:
		return "meta-write"
	case OpSync:
		return "sync"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// FaultFunc may return a non-nil error to inject a failure for the given
// operation on the given file and block index. A nil FaultFunc injects
// nothing. Fault hooks run before the real I/O is attempted; block-cache
// hits never reach the hook because no I/O is attempted for them.
type FaultFunc func(op Op, name string, block int64) error

// Stats is a snapshot of cumulative I/O counters.
type Stats struct {
	SeqReads     uint64 // sequential block reads
	SeqWrites    uint64 // sequential block writes
	RandReads    uint64 // random block reads that reached the backend
	BytesRead    uint64
	BytesWritten uint64
	Opens        uint64
	CacheHits    uint64 // random block reads served by the block cache
	CacheMisses  uint64 // random block reads that missed the cache
	// SkippedBlocks counts random reads answered entirely from a columnar
	// block header's min/max bounds — probes that needed neither the backend
	// nor the cache. Not part of Total(): a skip is the absence of an access.
	SkippedBlocks uint64
}

// Total returns the total number of block accesses (reads + writes).
func (s Stats) Total() uint64 { return s.SeqReads + s.SeqWrites + s.RandReads }

// sub64 returns a - b, clamped at zero, so snapshots passed in the wrong
// order read as "no I/O" rather than an absurd huge value.
func sub64(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Sub returns the element-wise difference s - t, for measuring the I/O cost
// of a region of execution bracketed by two snapshots. Each counter clamps
// at zero rather than underflowing when t exceeds s.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		SeqReads:      sub64(s.SeqReads, t.SeqReads),
		SeqWrites:     sub64(s.SeqWrites, t.SeqWrites),
		RandReads:     sub64(s.RandReads, t.RandReads),
		BytesRead:     sub64(s.BytesRead, t.BytesRead),
		BytesWritten:  sub64(s.BytesWritten, t.BytesWritten),
		Opens:         sub64(s.Opens, t.Opens),
		CacheHits:     sub64(s.CacheHits, t.CacheHits),
		CacheMisses:   sub64(s.CacheMisses, t.CacheMisses),
		SkippedBlocks: sub64(s.SkippedBlocks, t.SkippedBlocks),
	}
}

// Add returns the element-wise sum s + t.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		SeqReads:      s.SeqReads + t.SeqReads,
		SeqWrites:     s.SeqWrites + t.SeqWrites,
		RandReads:     s.RandReads + t.RandReads,
		BytesRead:     s.BytesRead + t.BytesRead,
		BytesWritten:  s.BytesWritten + t.BytesWritten,
		Opens:         s.Opens + t.Opens,
		CacheHits:     s.CacheHits + t.CacheHits,
		CacheMisses:   s.CacheMisses + t.CacheMisses,
		SkippedBlocks: s.SkippedBlocks + t.SkippedBlocks,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("seqR=%d seqW=%d randR=%d total=%d cacheHit=%d cacheMiss=%d skipped=%d",
		s.SeqReads, s.SeqWrites, s.RandReads, s.Total(), s.CacheHits, s.CacheMisses, s.SkippedBlocks)
}

// ioCounters is one set of cumulative I/O counters. The device aggregate
// and every namespaced view each own one.
type ioCounters struct {
	seqReads      atomic.Uint64
	seqWrites     atomic.Uint64
	randReads     atomic.Uint64
	bytesRead     atomic.Uint64
	bytesWritten  atomic.Uint64
	opens         atomic.Uint64
	cacheHits     atomic.Uint64
	cacheMisses   atomic.Uint64
	skippedBlocks atomic.Uint64
}

func (c *ioCounters) snapshot() Stats {
	return Stats{
		SeqReads:      c.seqReads.Load(),
		SeqWrites:     c.seqWrites.Load(),
		RandReads:     c.randReads.Load(),
		BytesRead:     c.bytesRead.Load(),
		BytesWritten:  c.bytesWritten.Load(),
		Opens:         c.opens.Load(),
		CacheHits:     c.cacheHits.Load(),
		CacheMisses:   c.cacheMisses.Load(),
		SkippedBlocks: c.skippedBlocks.Load(),
	}
}

// device is the state shared by every view of one physical block device:
// the backend, the block geometry, the block cache, fault injection, the
// simulated-latency profile and the aggregate I/O counters. Namespaced
// views (Manager.Namespace) multiplex many logical stores over one device,
// so the cache budget, latency model and aggregate accounting are shared by
// construction.
type device struct {
	backend   Backend
	blockSize int
	perBlock  int // elements per block

	agg ioCounters // device-wide counters, summed across all views
	// maintAgg attributes the subset of agg issued by maintenance work
	// (batch installs, sorts, level merges) device-wide, so operators can
	// tell background amplification from foreground traffic.
	maintAgg ioCounters

	cache atomic.Pointer[blockCache]

	// format is the device-wide default BlockFormat for newly created files
	// (FormatRaw unless SetBlockFormat is called). CreateFormat overrides it
	// per file; reads always auto-detect, so mixed-format devices are fine.
	format atomic.Uint32

	// idxCache memoizes parsed columnar footers (nil = confirmed format 0)
	// per device-wide name, so reopening a partition for every query does not
	// re-read and re-parse its index.
	idxMu    sync.Mutex
	idxCache map[string]*colIndex

	mu    sync.RWMutex
	fault FaultFunc

	latencyFields
}

// Manager is a block device over a storage backend. It creates, reads and
// deletes element files, and accounts for every block-level access; an
// optional block cache absorbs repeated random reads. A Manager is safe for
// concurrent use.
//
// A Manager is a view of an underlying shared device. The root view (from
// NewManager/NewManagerOn) addresses the backend's flat namespace directly
// and its Stats are the device aggregate. Namespace derives a prefixed view
// that shares the device (backend, cache budget, latency, fault hook,
// aggregate counters) but maps every file and metadata name under its
// prefix and keeps its own Stats — the per-stream accounting used by the
// multi-stream engine.
type Manager struct {
	dev    *device
	prefix string      // "" for the root view, "a/b/" for a namespaced view
	stats  *ioCounters // per-view counters; == &dev.agg for the root view
	// maint holds the view's maintenance-attributed counters; == &dev.maintAgg
	// for the root view. Only operations issued through a MaintTagged copy of
	// the view are counted here (in addition to the normal counters).
	maint *ioCounters
	// feeds is every counter set one operation through this handle is added
	// to (see newView).
	feeds []*ioCounters
}

// newView builds a handle and states, once, where its operations are counted:
// in the view's own counters and, for a namespaced view, in the device
// aggregate as well — so per-view Stats always sum to the root view's Stats —
// and, on a maintenance-tagged handle, in the view's and the device's
// maintenance counters too, an overlay that never changes the primary Stats.
func newView(d *device, prefix string, stats, maint *ioCounters, maintTagged bool) *Manager {
	m := &Manager{dev: d, prefix: prefix, stats: stats, maint: maint, feeds: []*ioCounters{stats}}
	if stats != &d.agg {
		m.feeds = append(m.feeds, &d.agg)
	}
	if maintTagged {
		m.feeds = append(m.feeds, maint)
		if maint != &d.maintAgg {
			m.feeds = append(m.feeds, &d.maintAgg)
		}
	}
	return m
}

// NewManager creates a file-backed block device rooted at dir (created if
// absent) with the given block size in bytes — the seed-compatible
// constructor. blockSize must be a positive multiple of ElementSize.
func NewManager(dir string, blockSize int) (*Manager, error) {
	b, err := NewFileBackend(dir)
	if err != nil {
		return nil, err
	}
	return NewManagerOn(b, blockSize)
}

// NewManagerOn creates a block device over an arbitrary backend.
func NewManagerOn(b Backend, blockSize int) (*Manager, error) {
	if blockSize <= 0 || blockSize%ElementSize != 0 {
		return nil, fmt.Errorf("disk: block size %d must be a positive multiple of %d", blockSize, ElementSize)
	}
	d := &device{backend: b, blockSize: blockSize, perBlock: blockSize / ElementSize}
	return newView(d, "", &d.agg, &d.maintAgg, false), nil
}

// key maps a view-relative name to the device-wide name.
func (m *Manager) key(name string) string { return m.prefix + name }

// Prefix returns the view's namespace prefix ("" for the root view).
func (m *Manager) Prefix() string { return m.prefix }

// Backend returns the underlying storage backend.
func (m *Manager) Backend() Backend { return m.dev.backend }

// BlockSize returns the block size in bytes.
func (m *Manager) BlockSize() int { return m.dev.blockSize }

// ElementsPerBlock returns how many elements fit in one block.
func (m *Manager) ElementsPerBlock() int { return m.dev.perBlock }

// SetBlockFormat sets the device-wide default format for newly created
// files. It is a device property shared by every view (like the cache
// budget): partitions, sort runs and merge outputs all inherit it.
// FormatColumnar requires a block size of at least 48 bytes so a header and
// one worst-case element fit in a block.
func (m *Manager) SetBlockFormat(f BlockFormat) error {
	if f == FormatColumnar && m.dev.blockSize < colMinBlockSize {
		return fmt.Errorf("disk: block size %d too small for columnar format (min %d)",
			m.dev.blockSize, colMinBlockSize)
	}
	m.dev.format.Store(uint32(f))
	return nil
}

// DefaultBlockFormat returns the device-wide default format for new files.
func (m *Manager) DefaultBlockFormat() BlockFormat {
	return BlockFormat(m.dev.format.Load())
}

// SetCache installs a block cache with a budget of blocks × BlockSize bytes
// of decoded elements on the random-read path; blocks <= 0 removes the
// cache. The budget is accounted in decoded bytes, not entries: compressed
// columnar blocks decode to more than one raw block's worth of elements, so
// the same budget holds correspondingly fewer (bigger) entries — compression
// widens cache reach in elements, not in bookkeeping slots. The cache is a
// device-wide budget shared by every view. Safe to call concurrently with
// I/O.
func (m *Manager) SetCache(blocks int) {
	m.dev.cache.Store(newBlockCache(int64(blocks)*int64(m.dev.blockSize), m.dev.blockSize))
}

// CacheBlocks returns the number of blocks currently cached device-wide (0
// without a cache).
func (m *Manager) CacheBlocks() int {
	if c := m.dev.cache.Load(); c != nil {
		return c.len()
	}
	return 0
}

// SetFault installs a device-wide fault-injection hook; nil removes it. The
// hook sees device-wide (prefixed) names.
func (m *Manager) SetFault(f FaultFunc) {
	m.dev.mu.Lock()
	m.dev.fault = f
	m.dev.mu.Unlock()
}

// injected runs the fault hook for an operation on a device-wide name.
func (m *Manager) injected(op Op, name string, block int64) error {
	m.dev.mu.RLock()
	f := m.dev.fault
	m.dev.mu.RUnlock()
	if f == nil {
		return nil
	}
	return f(op, name, block)
}

func (m *Manager) countOpen() {
	for _, c := range m.feeds {
		c.opens.Add(1)
	}
}

func (m *Manager) countSeqRead(nbytes int) {
	for _, c := range m.feeds {
		c.seqReads.Add(1)
		c.bytesRead.Add(uint64(nbytes))
	}
}

func (m *Manager) countSeqWrite(nbytes int) {
	for _, c := range m.feeds {
		c.seqWrites.Add(1)
		c.bytesWritten.Add(uint64(nbytes))
	}
}

func (m *Manager) countRandRead(nbytes int) {
	for _, c := range m.feeds {
		c.randReads.Add(1)
		c.bytesRead.Add(uint64(nbytes))
	}
}

func (m *Manager) countCacheHit() {
	for _, c := range m.feeds {
		c.cacheHits.Add(1)
	}
}

func (m *Manager) countBlockSkip() {
	for _, c := range m.feeds {
		c.skippedBlocks.Add(1)
	}
}

func (m *Manager) countCacheMiss() {
	for _, c := range m.feeds {
		c.cacheMisses.Add(1)
	}
}

// MaintTagged returns a handle on the same view whose I/O is additionally
// attributed to the view's maintenance counters — the store routes batch
// installs, sorts and level merges through it so background work is
// distinguishable from foreground traffic. The primary Stats are unchanged:
// maintenance attribution is an overlay, and per-view Stats still sum to
// the device aggregate.
func (m *Manager) MaintTagged() *Manager {
	return newView(m.dev, m.prefix, m.stats, m.maint, true)
}

// MaintStats returns the view's maintenance-attributed counters (the root
// view reports the device-wide maintenance aggregate). Always a subset of
// Stats.
func (m *Manager) MaintStats() Stats {
	return m.maint.snapshot()
}

// Stats returns a snapshot of this view's cumulative I/O counters. For the
// root view this is the device aggregate; for a namespaced view it covers
// only I/O issued through that view.
func (m *Manager) Stats() Stats {
	return m.stats.snapshot()
}

// invalidate drops cached blocks and the cached columnar index of a
// device-wide name after a remove or truncation.
func (m *Manager) invalidate(key string) {
	if c := m.dev.cache.Load(); c != nil {
		c.invalidate(key)
	}
	m.dev.dropIndex(key)
}

// Remove deletes the named file. Removing a non-existent file is an error.
// The cache is invalidated after the backend delete so a concurrent read of
// the old file cannot slip a block in between invalidation and removal.
func (m *Manager) Remove(name string) error {
	key := m.key(name)
	if err := m.dev.backend.Remove(key); err != nil {
		return fmt.Errorf("disk: remove %s: %w", key, err)
	}
	m.invalidate(key)
	return nil
}

// Exists reports whether the named file exists.
func (m *Manager) Exists(name string) bool {
	return m.dev.backend.Exists(m.key(name))
}

// Size returns the number of elements stored in the named file. For
// columnar files the count comes from the footer, not from byte-size
// arithmetic; format detection may open the file (uncounted, like other
// metadata access).
func (m *Manager) Size(name string) (int64, error) {
	key := m.key(name)
	n, err := m.dev.backend.Size(key)
	if err != nil {
		return 0, fmt.Errorf("disk: stat %s: %w", key, err)
	}
	if n < colHeadLen+colTrailerLen {
		return n / ElementSize, nil
	}
	h, err := m.dev.backend.Open(key)
	if err != nil {
		return 0, fmt.Errorf("disk: stat %s: %w", key, err)
	}
	defer h.Close()
	ix, err := m.columnarIndex(key, h)
	if err != nil {
		return 0, fmt.Errorf("disk: stat %s: %w", key, err)
	}
	if ix != nil {
		return ix.total(), nil
	}
	return n / ElementSize, nil
}

// WriteMeta atomically replaces a small metadata file (e.g. a manifest) on
// the backend. Metadata I/O is not block-accounted: the paper's cost model
// covers element data only. It does route through the fault hook (as
// OpMetaWrite), so tests can fail manifest commits like any other I/O.
func (m *Manager) WriteMeta(name string, data []byte) error {
	key := m.key(name)
	if err := m.injected(OpMetaWrite, key, 0); err != nil {
		return fmt.Errorf("disk: write meta %s: %w", key, err)
	}
	if err := m.dev.backend.WriteMeta(key, data); err != nil {
		return fmt.Errorf("disk: write meta %s: %w", key, err)
	}
	return nil
}

// Sync is the device's durability barrier: it returns once every previously
// completed write (data files, metadata commits, removals) is durable on
// the backend. The barrier is device-wide — syncing any view syncs them
// all. Sync routes through the fault hook as OpSync.
func (m *Manager) Sync() error {
	if err := m.injected(OpSync, m.prefix, 0); err != nil {
		return fmt.Errorf("disk: sync: %w", err)
	}
	if err := m.dev.backend.Sync(); err != nil {
		return fmt.Errorf("disk: sync: %w", err)
	}
	return nil
}

// List returns the view-relative names of all files under this view whose
// name starts with prefix, sorted. Crash recovery uses it to find orphaned
// files from half-finished installs.
func (m *Manager) List(prefix string) ([]string, error) {
	names, err := m.dev.backend.List(m.key(prefix))
	if err != nil {
		return nil, fmt.Errorf("disk: list %q: %w", m.key(prefix), err)
	}
	if m.prefix == "" {
		return names, nil
	}
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, n[len(m.prefix):])
	}
	return out, nil
}

// ReadMeta reads a metadata file written with WriteMeta.
func (m *Manager) ReadMeta(name string) ([]byte, error) {
	data, err := m.dev.backend.ReadMeta(m.key(name))
	if err != nil {
		return nil, fmt.Errorf("disk: read meta %s: %w", m.key(name), err)
	}
	return data, nil
}

// encodeInto writes vals as little-endian int64 into buf, which must be at
// least 8*len(vals) bytes.
func encodeInto(buf []byte, vals []int64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*ElementSize:], uint64(v))
	}
}

// decodeInto reads little-endian int64s from buf into out.
func decodeInto(out []int64, buf []byte) {
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[i*ElementSize:]))
	}
}
