package disk

import (
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/enc"
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

// openRead opens the named file for either reader: the device's entry for
// it, holding its block index in the device's format and the one read handle
// every reader of the file shares, with a reference taken that the reader's
// Close releases. Only a file with no open handle reaches the backend, so the
// OpOpen gate and Stats.Opens see real opens alone. The index fixes the
// file's element count and geometry; recreating the name under an open
// reader is unsupported.
func (m *Manager) openRead(name string) (*openFile, error) {
	key, d := m.key(name), m.dev
	d.fileMu.Lock()
	f := d.files[key]
	if f != nil && f.h != nil {
		d.hold(f)
		d.fileMu.Unlock()
		return f, nil
	}
	d.fileMu.Unlock()
	err := m.gate(OpOpen, key, 0)
	var h ReadHandle
	if err == nil {
		h, err = d.backend.Open(key)
	}
	if err != nil {
		return nil, fmt.Errorf("disk: open %s: %w", key, err)
	}
	m.countOpen()
	var ix *colIndex
	if f != nil {
		ix = f.ix // the idle list closed its handle; the index stays good
	} else if ix, err = m.loadIndex(h); err != nil {
		h.Close() //nolint:errcheck
		return nil, fmt.Errorf("disk: open %s: %w", key, err)
	}
	d.fileMu.Lock()
	if f = d.files[key]; f == nil {
		f = &openFile{key: key, ix: ix}
		d.files[key] = f
	}
	if f.h == nil {
		f.h, h = h, nil
	}
	d.hold(f)
	d.fileMu.Unlock()
	if h != nil {
		h.Close() //nolint:errcheck // a concurrent open's handle serves
	}
	return f, nil
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
	f       *openFile
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
// file is read in the device's format; a columnar device refuses a file that
// is not columnar version 2.
func (m *Manager) OpenSequential(name string) (*Reader, error) {
	f, err := m.openRead(name)
	if err != nil {
		return nil, err
	}
	bufp := seqBufPool.Get().(*[]byte)
	valsp := seqValsPool.Get().(*[]int64)
	return &Reader{
		m:     m,
		name:  f.key,
		f:     f,
		h:     f.h,
		ix:    f.ix,
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
	if r.pos >= r.n {
		if ok, err := r.refill(); !ok {
			return 0, false, err
		}
	}
	v = r.vals[r.pos]
	r.pos++
	r.read++
	return v, true, nil
}

// NextBlock returns the unread rest of the block the reader has decoded,
// decoding the next one first when none is left. The slice is the reader's
// staging, valid until the next call; an empty one means end of file.
func (r *Reader) NextBlock() ([]int64, error) {
	if r.pos >= r.n {
		if ok, err := r.refill(); !ok {
			return nil, err
		}
	}
	b := r.vals[r.pos:r.n]
	r.pos = r.n
	r.read += int64(len(b))
	return b, nil
}

// refill decodes the next block once the current one is read, and reports
// whether it holds an element.
func (r *Reader) refill() (bool, error) {
	if r.closed {
		return false, fmt.Errorf("disk: read from closed reader %s", r.name)
	}
	if r.read >= r.ix.total() {
		return false, nil
	}
	if err := r.fill(); err != nil {
		return false, err
	}
	return r.n > 0, nil
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

// Close releases the reader's reference on the file's shared handle and
// returns the staging buffers to the pools.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.pos, r.n = 0, 0 // the next read fails
	*r.bufp = r.buf
	seqBufPool.Put(r.bufp)
	*r.valsp = r.vals
	seqValsPool.Put(r.valsp)
	r.buf, r.vals = nil, nil
	return r.m.dev.release(r.f)
}

// RandomReader reads individual blocks of a file by index. Every Frame call
// that reaches the backend counts as one random read; calls absorbed by the
// Manager's block cache count as cache hits instead, and probes answered
// from columnar header bounds (see BlockBounds) count as skipped blocks.
// RandomReader is not safe for concurrent use.
type RandomReader struct {
	m      *Manager
	name   string
	f      *openFile
	h      ReadHandle
	ix     *colIndex
	reads  int // backend block reads issued through this handle
	hits   int // cache hits served through this handle
	skips  int // probes answered from header bounds without any read
	closed bool
}

// OpenRandom opens the named element file for random block access, in the
// device's format, as OpenSequential does.
func (m *Manager) OpenRandom(name string) (*RandomReader, error) {
	f, err := m.openRead(name)
	if err != nil {
		return nil, err
	}
	return &RandomReader{m: m, name: f.key, f: f, h: f.h, ix: f.ix}, nil
}

// frameStride is how many values of a delta frame lie between checkpoints:
// a run decode skips at most frameStride-1 deltas (~450 bytes of a sorted
// block), and a 57 000-value block keeps 223 checkpoints (0.9 KB of its
// file's footer, and of the index cache while the file is open). It is also
// the unit a stride read fetches and checks (RandomReader.ReadRun).
const frameStride = 256

// Frame is one block as a random read returns it: its bytes, checked once,
// and for a delta frame the byte offset of every frameStride-th value (the
// file's footer's, shared with its index), so any run of the block decodes
// without decoding what precedes it. A whole frame holds every stride of its
// block and is immutable. A stride read's frame holds the strides that cover
// its elements [lo, hi) only: in the caller's buffer, which the next read
// into it and RandomReader.Cover reuse, or in one of its own, immutable too,
// when the block cache keeps it. The cache shares its frames with every
// reader.
type Frame struct {
	n      int
	lo, hi int     // a stride read's frame holds elements [lo, hi); hi is 0 for a whole frame
	at     int     // the frame offset of bytes[0]
	bytes  []byte  // the frame, or its strides from byte at: little-endian int64s, or delta varints
	offs   []int32 // offs[k] is where value k·frameStride starts; nil for a raw frame
	kept   bool    // the block cache holds it: it is never written again
}

// Len returns the number of elements in the block.
func (f *Frame) Len() int { return f.n }

// span returns the elements the frame holds.
func (f *Frame) span() (lo, hi int) {
	if f.hi == 0 {
		return 0, f.n
	}
	return f.lo, f.hi
}

// holds reports whether the frame holds elements [from, to).
func (f *Frame) holds(from, to int) bool {
	lo, hi := f.span()
	return from >= lo && to <= hi
}

// Decode decodes the block's elements [from, from+len(dst)) into dst. prev is
// the value of element from-1; a raw frame, or a run from the block's start,
// needs none. A run outside the block or outside the strides the frame
// holds, or a frame that does not decode — a file crafted to pass its
// checksums — is an error.
func (f *Frame) Decode(dst []int64, from int, prev int64) error {
	to := from + len(dst)
	switch {
	case from < 0 || to > f.n:
		return fmt.Errorf("disk: run [%d,%d) outside a %d-element block", from, to, f.n)
	case len(dst) == 0:
		return nil
	case !f.holds(from, to):
		return fmt.Errorf("disk: run [%d,%d) outside the strides [%d,%d) read of a %d-element block", from, to, f.lo, f.hi, f.n)
	}
	if f.offs == nil {
		decodeInto(dst, f.bytes[from*ElementSize-f.at:])
		return nil
	}
	if from == 0 {
		prev = 0 // a block's deltas start from zero
	}
	ck := int(f.offs[from/frameStride]) - f.at
	off := ck + enc.SkipDelta(f.bytes[ck:], from%frameStride)
	if _, err := enc.DecodeDeltaFrom(dst, f.bytes[off:], prev); err != nil {
		return fmt.Errorf("disk: decode of [%d,%d) from a %d-element block: %w", from, to, f.n, err)
	}
	return nil
}

// Count returns the number of elements in the file.
func (r *RandomReader) Count() int64 { return r.ix.total() }

// Blocks returns the number of blocks in the file.
func (r *RandomReader) Blocks() int64 { return r.ix.blocks() }

// Reads returns the number of block reads this handle sent to the backend
// (cache hits excluded).
func (r *RandomReader) Reads() int { return r.reads }

// CacheHits returns the number of Frame calls served by the block cache.
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

// Frame reads block idx whole and returns it checked, undecoded. The Frame
// is shared with the Manager's block cache when one is installed; a hit
// returns the very Frame the miss cached.
func (r *RandomReader) Frame(idx int64) (*Frame, error) { return r.ReadRun(idx, 0, 0, nil) }

// ReadRun returns block idx holding at least its elements [from, to), checked
// and undecoded, as one random read or one cache hit. A hit is a cached frame
// that holds the run. Once the block's stride checksums are known (a
// version-2 block this process has read whole) a miss fetches only the
// strides that cover the run, and checks each against its own checksum: into
// gets them and is returned, or, with a cache installed, a frame of their
// own that the cache keeps. Any other miss fetches the whole block into a
// buffer of its own, checks it, derives the stride checksums and fills the
// cache. into nil asks for the whole block.
func (r *RandomReader) ReadRun(idx int64, from, to int, into *Frame) (*Frame, error) {
	if r.closed {
		return nil, fmt.Errorf("disk: read from closed reader %s", r.name)
	}
	if idx < 0 || idx >= r.ix.blocks() {
		return nil, fmt.Errorf("disk: block %d out of range [0,%d) in %s", idx, r.ix.blocks(), r.name)
	}
	if into == nil {
		from, to = 0, int(r.ix.blockCount(idx))
	}
	cache := r.m.dev.cache.Load()
	if cache != nil {
		if f, ok := cache.get(r.name, idx); ok && f.holds(from, to) {
			r.hits++
			r.m.countCacheHit()
			return f, nil
		}
	}
	var f *Frame
	var nbytes int
	if s := r.ix.derived(idx); s != nil && into != nil {
		if f = into; cache != nil {
			f = &Frame{kept: true} // the cache keeps it: bytes of its own
		}
		var err error
		if nbytes, err = r.fetch(f, idx, s, from, to, OpRandRead); err != nil {
			return nil, err
		}
	} else {
		off := r.ix.offsets[idx]
		nbytes = int(r.ix.offsets[idx+1] - off)
		// The frame keeps the bytes, so they get an allocation of their own.
		buf := make([]byte, nbytes)
		if err := r.m.readAt(OpRandRead, r.name, r.h, idx, buf, off); err != nil {
			return nil, err
		}
		var err error
		if f, err = r.ix.frame(buf, idx); err != nil {
			return nil, fmt.Errorf("disk: read %s block %d: %w", r.name, idx, err)
		}
		r.ix.derive(idx, f)
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
		cache.put(r.name, idx, f)
	}
	return f, nil
}

// Cover returns f, block idx's frame as ReadRun returned it, holding the
// block's elements [from, to): f itself when it holds them already (a whole
// frame always does); else f refilled with the strides that cover the run,
// or, for a frame the cache keeps, a new frame of its own. The strides are
// checked as a read's are. This is the §2.4 pinned-block access: not a
// random read, but counted in Stats.StrideReads and gated as OpStrideRead,
// which carries no simulated latency. A run outside the block is left for
// Frame.Decode to refuse.
func (r *RandomReader) Cover(f *Frame, idx int64, from, to int) (*Frame, error) {
	s := r.ix.derived(idx)
	if f.holds(from, to) || s == nil || from < 0 || to > f.n || from >= to {
		return f, nil
	}
	if r.closed {
		return nil, fmt.Errorf("disk: read from closed reader %s", r.name)
	}
	g := f
	if f.kept {
		g = &Frame{}
	}
	nbytes, err := r.fetch(g, idx, s, from, to, OpStrideRead)
	if err != nil {
		return nil, err
	}
	r.m.countStrideRead(nbytes)
	return g, nil
}

// fetch reads into f the strides of block idx, whose stride checksums s
// are, that cover its elements [from, to), checks each against its checksum,
// and returns how many bytes it read. A run outside the block is an error. A
// failed fetch leaves f holding nothing.
func (r *RandomReader) fetch(f *Frame, idx int64, s *blockStrides, from, to int, op Op) (int, error) {
	n := int(r.ix.blockCount(idx))
	if from < 0 || to > n || from >= to {
		return 0, fmt.Errorf("disk: read %s block %d: run [%d,%d) of a %d-element block", r.name, idx, from, to, n)
	}
	k0, k1 := from/frameStride, (to+frameStride-1)/frameStride
	a, b := r.ix.strideOff(idx, s, k0), r.ix.strideOff(idx, s, k1)
	buf := grow(f.bytes, b-a)
	*f = Frame{bytes: buf, kept: f.kept}
	if err := r.m.readAt(op, r.name, r.h, idx, buf, r.ix.offsets[idx]+colHeaderLen+int64(a)); err != nil {
		return 0, err
	}
	for k, at := k0, a; k < k1; k++ {
		end := r.ix.strideOff(idx, s, k+1)
		if c := crc32.Checksum(buf[at-a:end-a], crcTable); c != s.crcs[k] {
			return 0, fmt.Errorf("disk: read %s block %d: stride %d checksum %08x, derived %08x", r.name, idx, k, c, s.crcs[k])
		}
		at = end
	}
	if !s.raw {
		f.offs = r.ix.cks[idx]
	}
	f.n, f.at, f.lo, f.hi = n, a, k0*frameStride, min(k1*frameStride, n)
	return b - a, nil
}

// Block reads block idx and returns all its elements in a fresh slice: a
// Frame and a whole-block decode.
func (r *RandomReader) Block(idx int64) ([]int64, error) {
	f, err := r.Frame(idx)
	if err != nil {
		return nil, err
	}
	out := make([]int64, f.n)
	if err := f.Decode(out, 0, 0); err != nil {
		return nil, fmt.Errorf("disk: read %s block %d: %w", r.name, idx, err)
	}
	return out, nil
}

// ElementBlock returns the block index containing element i.
func (r *RandomReader) ElementBlock(i int64) int64 { return r.ix.findBlock(i) }

// Close releases the reader's reference on the file's shared handle.
func (r *RandomReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	return r.m.dev.release(r.f)
}
