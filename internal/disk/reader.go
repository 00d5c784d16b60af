package disk

import (
	"fmt"
	"io"
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

// openRead opens the named file for either reader: its handle, its size (via
// the handle: the name may be recreated meanwhile) and its columnar index.
func (m *Manager) openRead(name string) (key string, h ReadHandle, size int64, ix *colIndex, err error) {
	key = m.key(name)
	if err = m.injected(OpOpen, key, 0); err == nil {
		h, err = m.dev.backend.Open(key)
	}
	if err != nil {
		return "", nil, 0, nil, fmt.Errorf("disk: open %s: %w", key, err)
	}
	m.countOpen()
	if size, err = h.Size(); err != nil {
		err = fmt.Errorf("disk: stat %s: %w", key, err)
	} else if ix, err = m.columnarIndex(key, h); err != nil {
		err = fmt.Errorf("disk: open %s: %w", key, err)
	}
	if err != nil {
		h.Close() //nolint:errcheck
		return "", nil, 0, nil, err
	}
	return key, h, size, ix, nil
}

// Reader scans a file sequentially, one block at a time (or several with
// SetReadahead). Every block read counts as one sequential read. Sequential
// scans bypass the block cache (scan resistance: a merge touches each block
// exactly once). Reader is not safe for concurrent use.
type Reader struct {
	m       *Manager
	name    string
	h       ReadHandle
	ix      *colIndex // parsed columnar footer; nil for format-0 files
	bufp    *[]byte
	valsp   *[]int64
	buf     []byte
	vals    []int64
	pos     int   // next element index within vals
	n       int   // valid elements in vals
	block   int64 // next block index to read
	fetched int64 // columnar: buf holds blocks [block, fetched), from file offset bufOff
	bufOff  int64
	count   int64 // total elements in the file
	read    int64 // elements returned so far
	ahead   int   // blocks fetched per backend call (>= 1)
	closed  bool
}

// OpenSequential opens the named element file for a sequential scan. The
// block format is auto-detected, so mixed-format stores scan uniformly.
func (m *Manager) OpenSequential(name string) (*Reader, error) {
	key, h, size, ix, err := m.openRead(name)
	if err != nil {
		return nil, err
	}
	count := size / ElementSize
	if ix != nil {
		// Element counts come from the footer the writer committed, not
		// from byte-size arithmetic — a compressed file's size says nothing
		// about its element count.
		count = ix.total()
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
		count: count,
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

// Count returns the total number of elements in the file.
func (r *Reader) Count() int64 { return r.count }

// Next returns the next element. It returns ok=false at end of file.
func (r *Reader) Next() (v int64, ok bool, err error) {
	if r.closed {
		return 0, false, fmt.Errorf("disk: read from closed reader %s", r.name)
	}
	if r.pos >= r.n {
		if r.read >= r.count {
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

func (r *Reader) fill() error {
	if r.ix != nil {
		return r.fillColumnar()
	}
	if err := r.m.injected(OpSeqRead, r.name, r.block); err != nil {
		return fmt.Errorf("disk: read %s block %d: %w", r.name, r.block, err)
	}
	r.m.sleepFor(OpSeqRead)
	bs := r.m.dev.blockSize
	r.buf = grow(r.buf, r.ahead*bs)
	n, err := r.h.ReadAt(r.buf, r.block*int64(bs))
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	if err != nil {
		return fmt.Errorf("disk: read %s block %d: %w", r.name, r.block, err)
	}
	if n%ElementSize != 0 {
		return fmt.Errorf("disk: read %s block %d: torn element (%d bytes)", r.name, r.block, n)
	}
	cnt := n / ElementSize
	r.vals = grow(r.vals, cnt)
	decodeInto(r.vals[:cnt], r.buf[:n])
	r.pos, r.n = 0, cnt
	for got := 0; got < n; got += bs {
		rem := n - got
		if rem > bs {
			rem = bs
		}
		r.m.countSeqRead(rem)
		r.block++
	}
	return nil
}

// fillColumnar decodes the next block. The bytes arrive r.ahead blocks per
// backend read — located by the footer, so a short read is corruption, not
// EOF — and are decoded one block at a time: a reader, and the pool after it,
// holds the fetched bytes and one decoded block, not r.ahead of them.
func (r *Reader) fillColumnar() error {
	nb := r.ix.blocks()
	if r.block >= nb {
		r.pos, r.n = 0, 0
		return nil
	}
	if r.block >= r.fetched {
		end := min(r.block+int64(r.ahead), nb)
		r.bufOff = r.ix.offsets[r.block]
		if err := r.m.injected(OpSeqRead, r.name, r.block); err != nil {
			return fmt.Errorf("disk: read %s block %d: %w", r.name, r.block, err)
		}
		r.m.sleepFor(OpSeqRead)
		r.buf = grow(r.buf, int(r.ix.offsets[end]-r.bufOff))
		if _, err := r.h.ReadAt(r.buf, r.bufOff); err != nil {
			return fmt.Errorf("disk: read %s block %d: %w", r.name, r.block, err)
		}
		for b := r.block; b < end; b++ {
			r.m.countSeqRead(int(r.ix.offsets[b+1] - r.ix.offsets[b]))
		}
		r.fetched = end
	}
	bbuf := r.buf[r.ix.offsets[r.block]-r.bufOff : r.ix.offsets[r.block+1]-r.bufOff]
	cnt := int(r.ix.blockCount(r.block))
	r.vals = grow(r.vals, cnt)
	if err := decodeColBlock(r.vals, bbuf, cnt); err != nil {
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
	ix     *colIndex // parsed columnar footer; nil for format-0 files
	count  int64     // elements in the file
	blocks int64     // number of blocks
	reads  int       // backend block reads issued through this handle
	hits   int       // cache hits served through this handle
	skips  int       // probes answered from header bounds without any read
	closed bool
}

// OpenRandom opens the named element file for random block access. The
// block format is auto-detected.
func (m *Manager) OpenRandom(name string) (*RandomReader, error) {
	key, h, size, ix, err := m.openRead(name)
	if err != nil {
		return nil, err
	}
	count := size / ElementSize
	blocks := (count + int64(m.dev.perBlock) - 1) / int64(m.dev.perBlock)
	if ix != nil {
		count = ix.total()
		blocks = ix.blocks()
	}
	return &RandomReader{
		m:      m,
		name:   key,
		h:      h,
		ix:     ix,
		count:  count,
		blocks: blocks,
	}, nil
}

// staging takes n bytes of read buffer from the sequential readers' pool for
// one backend read (a query's cursors share a buffer in turn). n comes from
// the file's own index: a file keeps its geometry when the device's changes.
func staging(n int) *[]byte {
	bufp := seqBufPool.Get().(*[]byte)
	*bufp = grow(*bufp, n)
	return bufp
}

// Count returns the number of elements in the file.
func (r *RandomReader) Count() int64 { return r.count }

// Blocks returns the number of blocks in the file.
func (r *RandomReader) Blocks() int64 { return r.blocks }

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
	if r.ix == nil || idx < 0 || idx >= r.blocks {
		return 0, 0, false
	}
	return r.ix.mins[idx], r.ix.maxs[idx], true
}

// BlockStart returns the element index of the first element in block idx.
func (r *RandomReader) BlockStart(idx int64) int64 {
	if r.ix != nil {
		return r.ix.starts[idx]
	}
	return idx * int64(r.m.dev.perBlock)
}

// BlockLen returns the number of elements in block idx.
func (r *RandomReader) BlockLen(idx int64) int64 {
	if r.ix != nil {
		return r.ix.blockCount(idx)
	}
	n := r.count - idx*int64(r.m.dev.perBlock)
	if per := int64(r.m.dev.perBlock); n > per {
		n = per
	}
	return n
}

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
	if idx < 0 || idx >= r.blocks {
		return nil, fmt.Errorf("disk: block %d out of range [0,%d) in %s", idx, r.blocks, r.name)
	}
	cache := r.m.dev.cache.Load()
	if cache != nil {
		if vals, ok := cache.get(r.name, idx); ok {
			r.hits++
			r.m.countCacheHit()
			return vals, nil
		}
	}
	if err := r.m.injected(OpRandRead, r.name, idx); err != nil {
		return nil, fmt.Errorf("disk: read %s block %d: %w", r.name, idx, err)
	}
	r.m.sleepFor(OpRandRead)
	// Format 0 has the device's geometry; a columnar file has its own.
	off, nbytes := idx*int64(r.m.dev.blockSize), r.m.dev.blockSize
	if r.ix != nil {
		off = r.ix.offsets[idx]
		nbytes = int(r.ix.offsets[idx+1] - off)
	}
	bufp := staging(nbytes)
	defer seqBufPool.Put(bufp)
	buf := *bufp
	var out []int64
	if r.ix != nil {
		if _, err := r.h.ReadAt(buf, off); err != nil {
			return nil, fmt.Errorf("disk: read %s block %d: %w", r.name, idx, err)
		}
		cnt := int(r.ix.blockCount(idx))
		// Decoded blocks are pinned by the search layer and shared with the
		// cache, so each gets its own allocation rather than pooled staging.
		out = make([]int64, cnt)
		if err := decodeColBlock(out, buf, cnt); err != nil {
			return nil, fmt.Errorf("disk: read %s block %d: %w", r.name, idx, err)
		}
	} else {
		n, err := r.h.ReadAt(buf, off)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = nil
		}
		if err != nil {
			return nil, fmt.Errorf("disk: read %s block %d: %w", r.name, idx, err)
		}
		if n%ElementSize != 0 {
			return nil, fmt.Errorf("disk: read %s block %d: torn element (%d bytes)", r.name, idx, n)
		}
		out = make([]int64, n/ElementSize)
		decodeInto(out, buf[:n])
		nbytes = n
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
func (r *RandomReader) ElementBlock(i int64) int64 {
	if r.ix != nil {
		return r.ix.findBlock(i)
	}
	return i / int64(r.m.dev.perBlock)
}

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
