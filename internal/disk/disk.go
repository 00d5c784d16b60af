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
// A random read counts as one block access whatever it moves. Past a
// version-2 block's first random read in the process, which reads it whole
// and derives a CRC-32C for each of its strides (frameStride values), a read
// moves only the strides that cover the run it decodes
// (RandomReader.ReadRun), and the strides a pinned frame lacks come as
// stride reads (RandomReader.Cover), which the paper's count leaves out as
// it leaves out the §2.4 pinned block: Stats.StrideReads counts them.
//
// The default block size is 100 KB, the value assumed throughout the paper's
// experiments, giving 12,800 elements per block.
package disk

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"slices"
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
	// OpOpen is a backend file open: a Create, or a reader's open of a file
	// the device holds no handle of.
	OpOpen
	// OpMetaWrite is an atomic metadata replacement (manifest commit).
	OpMetaWrite
	// OpSync is a durability barrier.
	OpSync
	// OpStrideRead fetches strides a pinned block lacks (RandomReader.Cover):
	// the §2.4 pinned-block access, which is not a random read and carries no
	// simulated latency.
	OpStrideRead
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
	case OpStrideRead:
		return "stride-read"
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
	Opens        uint64 // backend opens: a Create, or a read of a file with no open handle
	CacheHits    uint64 // random block reads served by the block cache
	CacheMisses  uint64 // random block reads that missed the cache
	// SkippedBlocks counts random reads answered entirely from a columnar
	// block header's min/max bounds — probes that needed neither the backend
	// nor the cache. Not part of Total(): a skip is the absence of an access.
	SkippedBlocks uint64
	// StrideReads counts the fetches of strides a pinned block lacked
	// (RandomReader.Cover): reads the paper's cost model does not count, as
	// the §2.4 pinned block is free. Not part of Total(); their bytes are in
	// BytesRead.
	StrideReads uint64
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
		StrideReads:   sub64(s.StrideReads, t.StrideReads),
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
		StrideReads:   s.StrideReads + t.StrideReads,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("seqR=%d seqW=%d randR=%d total=%d cacheHit=%d cacheMiss=%d skipped=%d strideR=%d",
		s.SeqReads, s.SeqWrites, s.RandReads, s.Total(), s.CacheHits, s.CacheMisses, s.SkippedBlocks, s.StrideReads)
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
	strideReads   atomic.Uint64
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
		StrideReads:   c.strideReads.Load(),
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

	cache atomic.Pointer[blockCache]

	// format is the one BlockFormat the device writes and reads (FormatRaw
	// unless SetBlockFormat is called): a file of another format is misread
	// by a raw device and refused by a columnar one.
	format atomic.Uint32

	// files holds, per device-wide name, what reading a file needs: its
	// block index, parsed from the footer once, and one read handle every
	// reader of the file shares (openFile). A query's cursors and a merge's
	// scans take a reference instead of opening the file, so the backend
	// sees one open per file per process. Both go when the file is removed
	// or recreated; idle lists the handles no reader holds, least recently
	// released first, at most maxIdleHandles of them.
	fileMu sync.Mutex
	files  map[string]*openFile
	idle   list.List

	fault atomic.Pointer[FaultFunc]

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
	// feeds is every counter set one operation through this handle is added
	// to (see newView).
	feeds []*ioCounters
}

// newView builds a handle and states, once, where its operations are counted:
// in the view's own counters and, for a namespaced view, in the device
// aggregate as well — so per-view Stats always sum to the root view's Stats.
func newView(d *device, prefix string, stats *ioCounters) *Manager {
	m := &Manager{dev: d, prefix: prefix, stats: stats, feeds: []*ioCounters{stats}}
	if stats != &d.agg {
		m.feeds = append(m.feeds, &d.agg)
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
	d := &device{backend: b, blockSize: blockSize, perBlock: blockSize / ElementSize, files: make(map[string]*openFile)}
	return newView(d, "", &d.agg), nil
}

// key maps a view-relative name to the device-wide name.
func (m *Manager) key(name string) string { return m.prefix + name }

// Backend returns the underlying storage backend.
func (m *Manager) Backend() Backend { return m.dev.backend }

// BlockSize returns the block size in bytes.
func (m *Manager) BlockSize() int { return m.dev.blockSize }

// SetBlockFormat sets the one format the device writes and reads: every file
// it creates, and every file it opens, nothing detected per file. It is a
// device property shared by every view (like the cache budget), set before
// the device's first open. FormatColumnar requires a block size of at least
// 48 bytes so a header and one worst-case element fit in a block.
func (m *Manager) SetBlockFormat(f BlockFormat) error {
	if f == FormatColumnar && m.dev.blockSize < colMinBlockSize {
		return fmt.Errorf("disk: block size %d too small for columnar format (min %d)",
			m.dev.blockSize, colMinBlockSize)
	}
	m.dev.format.Store(uint32(f))
	return nil
}

// DefaultBlockFormat returns the format the device writes and reads.
func (m *Manager) DefaultBlockFormat() BlockFormat {
	return BlockFormat(m.dev.format.Load())
}

// SetCache installs a block cache with a budget of blocks × BlockSize bytes
// on the random-read path; blocks <= 0 removes the cache. It holds checked
// frames but charges each its decoded size, not entries or frame bytes:
// compressed columnar blocks hold more than one raw block's worth of
// elements, so the same budget holds correspondingly fewer (bigger) entries —
// compression widens cache reach in elements, not in bookkeeping slots. The cache is a
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
	if f == nil {
		m.dev.fault.Store(nil)
		return
	}
	m.dev.fault.Store(&f)
}

// gate is the one door every operation on a device-wide name passes before
// its real I/O: the fault hook, then the simulated latency.
func (m *Manager) gate(op Op, name string, block int64) error {
	if f := m.dev.fault.Load(); f != nil {
		if err := (*f)(op, name, block); err != nil {
			return err
		}
	}
	m.sleepFor(op)
	return nil
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

func (m *Manager) countStrideRead(nbytes int) {
	for _, c := range m.feeds {
		c.strideReads.Add(1)
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

// Metered returns a handle on the same view whose I/O is counted exactly as
// through m and, besides, in counters of its own, which are what its Stats
// report: one job's I/O, free of whatever else runs on the view meanwhile
// (the store meters each level-0 write and each merge with one).
func (m *Manager) Metered() *Manager {
	own := new(ioCounters)
	return &Manager{dev: m.dev, prefix: m.prefix, stats: own, feeds: append(slices.Clip(m.feeds), own)}
}

// Stats returns a snapshot of this view's cumulative I/O counters. For the
// root view this is the device aggregate; for a namespaced view it covers
// only I/O issued through that view.
func (m *Manager) Stats() Stats {
	return m.stats.snapshot()
}

// invalidate drops cached blocks and the cached index and handle of a
// device-wide name after a remove or truncation.
func (m *Manager) invalidate(key string) {
	if c := m.dev.cache.Load(); c != nil {
		c.invalidate(key)
	}
	m.dev.drop(key)
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

// WriteMeta atomically replaces a small metadata file (e.g. a manifest) on
// the backend. Metadata I/O is not block-accounted: the paper's cost model
// covers element data only. It does route through the fault hook (as
// OpMetaWrite), so tests can fail manifest commits like any other I/O.
func (m *Manager) WriteMeta(name string, data []byte) error {
	key := m.key(name)
	err := m.gate(OpMetaWrite, key, 0)
	if err == nil {
		err = m.dev.backend.WriteMeta(key, data)
	}
	if err != nil {
		return fmt.Errorf("disk: write meta %s: %w", key, err)
	}
	return nil
}

// Sync is the device's durability barrier: it returns once every previously
// completed write (data files, metadata commits, removals) is durable on
// the backend. The barrier is device-wide — syncing any view syncs them
// all. Sync routes through the fault hook as OpSync.
func (m *Manager) Sync() error {
	err := m.gate(OpSync, m.prefix, 0)
	if err == nil {
		err = m.dev.backend.Sync()
	}
	if err != nil {
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
