package disk

import (
	"fmt"
	"sync"
)

// Sequential readers recycle their block and element staging through pools,
// so steady-state merge scans run allocation-free: a scan's only per-block
// work is one backend read and one decode into a buffer that outlives the
// reader via the pool.
var (
	seqBufPool  = sync.Pool{New: func() any { return new([]byte) }}
	seqValsPool = sync.Pool{New: func() any { return new([]int64) }}
)

// grow returns s resized to n, reallocating (and dropping the old contents)
// only when capacity lacks.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// openRead opens the named file for either reader: its handle and its block
// index, in either format. The index fixes the file's element count and
// geometry at open; recreating the name under an open reader is unsupported.
func (m *Manager) openRead(name string) (key string, h ReadHandle, ix *colIndex, err error) {
	key = m.key(name)
	if err = m.gate(OpOpen, key, 0); err == nil {
		h, err = m.dev.backend.Open(key)
	}
	if err != nil {
		return "", nil, nil, fmt.Errorf("disk: open %s: %w", key, err)
	}
	m.countOpen()
	if ix, err = m.index(key, h); err != nil {
		h.Close() //nolint:errcheck
		return "", nil, nil, fmt.Errorf("disk: open %s: %w", key, err)
	}
	return key, h, ix, nil
}

// readAt passes the operation's gate for block idx, then reads len(buf) bytes
// at off: that block onward, as the file's index locates it. A short read is
// an error, not EOF.
func (m *Manager) readAt(op Op, name string, h ReadHandle, idx int64, buf []byte, off int64) error {
	err := m.gate(op, name, idx)
	if err == nil {
		var n int
		// io.ReaderAt may report EOF beside a full read that ends the file.
		if n, err = h.ReadAt(buf, off); n == len(buf) {
			err = nil
		}
	}
	if err != nil {
		return fmt.Errorf("disk: read %s block %d: %w", name, idx, err)
	}
	return nil
}

// Reader scans a file sequentially, one block at a time (or several with
// SetReadahead). Every block read counts as one sequential read. Sequential
// scans bypass the block cache (scan resistance: a merge touches each block
// exactly once). Reader is not safe for concurrent use.
type Reader struct {
	m       *Manager
	name    string
	h       ReadHandle
	ix      *colIndex
	bufp    *[]byte
	valsp   *[]int64
	buf     []byte
	vals    []int64
	pos     int   // next element index within vals
	n       int   // valid elements in vals
	block   int64 // next block index to decode
	fetched int64 // buf holds blocks [block, fetched), from file offset bufOff
	bufOff  int64
	read    int64 // elements returned so far
	ahead   int   // blocks fetched per backend call (>= 1)
	closed  bool
}

// OpenSequential opens the named element file for a sequential scan. The
// block format is auto-detected, so mixed-format stores scan uniformly.
func (m *Manager) OpenSequential(name string) (*Reader, error) {
	key, h, ix, err := m.openRead(name)
	if err != nil {
		return nil, err
	}
	bufp := seqBufPool.Get().(*[]byte)
	valsp := seqValsPool.Get().(*[]int64)
	return &Reader{
		m:     m,
		name:  key,
		h:     h,
		ix:    ix,
		bufp:  bufp,
		valsp: valsp,
		buf:   *bufp,
		vals:  *valsp,
		ahead: 1,
	}, nil
}

// SetReadahead makes each backend call fetch up to k contiguous blocks
// (clamped to at least 1). Each fetched block still counts as one
// sequential read, but the batch shares one backend call and one simulated
// seek, and the fault hook fires once at the batch's first block — so merge
// paths enable readahead while per-block fault-injection tests keep the
// default. k-way merges set this so each run refill is one backend call.
func (r *Reader) SetReadahead(k int) {
	if k < 1 {
		k = 1
	}
	r.ahead = k
}

// Count returns the total number of elements in the file. Element counts come
// from the index — for a columnar file, the footer the writer committed, not
// byte-size arithmetic.
func (r *Reader) Count() int64 { return r.ix.total() }

// Next returns the next element. It returns ok=false at end of file.
func (r *Reader) Next() (v int64, ok bool, err error) {
	if r.closed {
		return 0, false, fmt.Errorf("disk: read from closed reader %s", r.name)
	}
	if r.pos >= r.n {
		if r.read >= r.ix.total() {
			return 0, false, nil
		}
		if err := r.fill(); err != nil {
			return 0, false, err
		}
		if r.n == 0 {
			return 0, false, nil
		}
	}
	v = r.vals[r.pos]
	r.pos++
	r.read++
	return v, true, nil
}

// fill decodes the next block. The bytes arrive r.ahead blocks per backend
// read and are decoded one block at a time: a reader, and the pool after it,
// holds the fetched bytes and one decoded block, not r.ahead of them.
func (r *Reader) fill() error {
	ix := r.ix
	nb := ix.blocks()
	if r.block >= nb {
		r.pos, r.n = 0, 0
		return nil
	}
	if r.block >= r.fetched {
		end := min(r.block+int64(r.ahead), nb)
		r.bufOff = ix.offsets[r.block]
		r.buf = grow(r.buf, int(ix.offsets[end]-r.bufOff))
		if err := r.m.readAt(OpSeqRead, r.name, r.h, r.block, r.buf, r.bufOff); err != nil {
			return err
		}
		for b := r.block; b < end; b++ {
			r.m.countSeqRead(int(ix.offsets[b+1] - ix.offsets[b]))
		}
		r.fetched = end
	}
	cnt := int(ix.blockCount(r.block))
	r.vals = grow(r.vals, cnt)
	if err := ix.decode(r.vals, r.buf[ix.offsets[r.block]-r.bufOff:ix.offsets[r.block+1]-r.bufOff], r.block); err != nil {
		return fmt.Errorf("disk: read %s block %d: %w", r.name, r.block, err)
	}
	r.pos, r.n = 0, cnt
	r.block++
	return nil
}

// Close releases the underlying handle and returns the staging buffers to
// the pools.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	*r.bufp = r.buf
	seqBufPool.Put(r.bufp)
	*r.valsp = r.vals
	seqValsPool.Put(r.valsp)
	r.buf, r.vals = nil, nil
	if err := r.h.Close(); err != nil {
		return fmt.Errorf("disk: close %s: %w", r.name, err)
	}
	return nil
}

// RandomReader reads individual blocks of a file by index. Every Block call
// that reaches the backend counts as one random read; calls absorbed by the
// Manager's block cache count as cache hits instead, and probes answered
// from columnar header bounds (see BlockBounds) count as skipped blocks.
// RandomReader is not safe for concurrent use.
type RandomReader struct {
	m      *Manager
	name   string
	h      ReadHandle
	ix     *colIndex
	reads  int // backend block reads issued through this handle
	hits   int // cache hits served through this handle
	skips  int // probes answered from header bounds without any read
	closed bool
}

// OpenRandom opens the named element file for random block access. The
// block format is auto-detected.
func (m *Manager) OpenRandom(name string) (*RandomReader, error) {
	key, h, ix, err := m.openRead(name)
	if err != nil {
		return nil, err
	}
	return &RandomReader{m: m, name: key, h: h, ix: ix}, nil
}

// staging takes n bytes of read buffer from the sequential readers' pool for
// one backend read (a query's cursors share a buffer in turn). n comes from
// the file's own index: a columnar file keeps its geometry when the device's
// changes.
func staging(n int) *[]byte {
	bufp := seqBufPool.Get().(*[]byte)
	*bufp = grow(*bufp, n)
	return bufp
}

// Count returns the number of elements in the file.
func (r *RandomReader) Count() int64 { return r.ix.total() }

// Blocks returns the number of blocks in the file.
func (r *RandomReader) Blocks() int64 { return r.ix.blocks() }

// Reads returns the number of block reads this handle sent to the backend
// (cache hits excluded).
func (r *RandomReader) Reads() int { return r.reads }

// CacheHits returns the number of Block calls served by the block cache.
func (r *RandomReader) CacheHits() int { return r.hits }

// Skips returns how many probes this handle answered from columnar header
// bounds without reading the block (see Skip).
func (r *RandomReader) Skips() int { return r.skips }

// BlockBounds returns the smallest and largest element stored in block idx,
// read from the columnar block index without touching the block itself.
// ok is false for format-0 files, which carry no bounds.
func (r *RandomReader) BlockBounds(idx int64) (min, max int64, ok bool) {
	if r.ix.mins == nil || idx < 0 || idx >= r.ix.blocks() {
		return 0, 0, false
	}
	return r.ix.mins[idx], r.ix.maxs[idx], true
}

// BlockStart returns the element index of the first element in block idx.
func (r *RandomReader) BlockStart(idx int64) int64 { return r.ix.starts[idx] }

// BlockLen returns the number of elements in block idx.
func (r *RandomReader) BlockLen(idx int64) int64 { return r.ix.blockCount(idx) }

// Skip records that the probe against block idx was answered entirely from
// its header bounds — no backend read, no cache access. The search layer
// calls it when BlockBounds excludes a block, so skip counters surface in
// I/O stats alongside reads and hits.
func (r *RandomReader) Skip(int64) {
	r.skips++
	r.m.countBlockSkip()
}

// Block reads block idx and returns its elements. The returned slice is
// shared with the Manager's block cache when one is installed, so callers
// must treat it as immutable (the query layer only reads pinned blocks).
func (r *RandomReader) Block(idx int64) ([]int64, error) {
	if r.closed {
		return nil, fmt.Errorf("disk: read from closed reader %s", r.name)
	}
	if idx < 0 || idx >= r.ix.blocks() {
		return nil, fmt.Errorf("disk: block %d out of range [0,%d) in %s", idx, r.ix.blocks(), r.name)
	}
	cache := r.m.dev.cache.Load()
	if cache != nil {
		if vals, ok := cache.get(r.name, idx); ok {
			r.hits++
			r.m.countCacheHit()
			return vals, nil
		}
	}
	off, nbytes := r.ix.offsets[idx], int(r.ix.offsets[idx+1]-r.ix.offsets[idx])
	bufp := staging(nbytes)
	defer seqBufPool.Put(bufp)
	if err := r.m.readAt(OpRandRead, r.name, r.h, idx, *bufp, off); err != nil {
		return nil, err
	}
	// Decoded blocks are pinned by the search layer and shared with the
	// cache, so each gets its own allocation rather than pooled staging.
	out := make([]int64, r.ix.blockCount(idx))
	if err := r.ix.decode(out, *bufp, idx); err != nil {
		return nil, fmt.Errorf("disk: read %s block %d: %w", r.name, idx, err)
	}
	r.reads++
	r.m.countRandRead(nbytes)
	if cache != nil {
		r.m.countCacheMiss()
		// Caching partial tail blocks is sound within the Manager API: the
		// Writer only flushes a partial block at Close, after which the
		// file can never grow (Create truncates), so a visible partial
		// block is as immutable as a full one. Writing to the backend
		// directly, bypassing this Manager, voids that guarantee.
		cache.put(r.name, idx, out)
	}
	return out, nil
}

// ElementBlock returns the block index containing element i.
func (r *RandomReader) ElementBlock(i int64) int64 { return r.ix.findBlock(i) }

// Close releases the underlying handle.
func (r *RandomReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if err := r.h.Close(); err != nil {
		return fmt.Errorf("disk: close %s: %w", r.name, err)
	}
	return nil
}
