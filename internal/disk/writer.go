package disk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"

	"repro/internal/enc"
)

// Writer writes elements sequentially to a file, one block at a time.
// Every flushed block counts as one sequential write — for both formats, a
// block reaches the backend in exactly one Write call, which is the crash
// granularity the crash-simulation backend depends on. The final, possibly
// partial block also counts as one write; a columnar file additionally
// writes its footer (index + trailer) as one more sequential write at Close.
// Writer is not safe for concurrent use.
type Writer struct {
	m      *Manager
	name   string
	h      WriteHandle
	format BlockFormat
	// buf stages the block being written — its frame, 8 little-endian bytes
	// per element for raw, a varint delta for columnar — behind hdr bytes
	// kept free for what precedes the frame in the file (a columnar block's
	// header, and the file's head magic before the first).
	// A block is flushed when the next element would take the frame past
	// budget bytes. buf starts at writerStartBuf bytes of frame and grows to
	// a whole block in one step, so a small file stages no more than it
	// holds.
	buf    []byte
	hdr    int
	budget int
	count  int64 // elements written so far
	blocks int64 // blocks flushed so far
	off    int64 // file bytes written so far
	io     Stats // this writer's own share of the device counters
	closed bool

	// Columnar state: the staged block's element count and bounds, the delta
	// base, the frame offset of every frameStride-th element (its
	// checkpoints), and the accumulated footer index entries.
	n      int
	mn, mx int64
	prev   int64
	cks    []uint32
	index  []byte
	tmp    [enc.MaxVarintLen64]byte
}

// writerStartBuf is how many frame bytes a Writer stages before its first
// growth: a 1 000-value sorted step fits, a 100 KB block does not.
const writerStartBuf = 4 << 10

// Create creates (truncating if present) the named element file in the
// device's block format and returns a sequential Writer for it.
func (m *Manager) Create(name string) (*Writer, error) {
	key, f := m.key(name), m.DefaultBlockFormat()
	if f == FormatColumnar && m.dev.blockSize < colMinBlockSize {
		return nil, fmt.Errorf("disk: create %s: block size %d too small for columnar format (min %d)",
			key, m.dev.blockSize, colMinBlockSize)
	}
	if err := m.gate(OpOpen, key, 0); err != nil {
		return nil, fmt.Errorf("disk: create %s: %w", key, err)
	}
	h, err := m.dev.backend.Create(key)
	if err != nil {
		return nil, fmt.Errorf("disk: create %s: %w", key, err)
	}
	// Truncation makes any cached blocks of the old content stale;
	// invalidate after the backend mutation so a read completing just
	// before the truncation cannot repopulate behind the invalidation.
	// (Reusing a name while readers of the old content are still active is
	// not supported — the store's monotonic IDs never do this.)
	m.invalidate(key)
	m.countOpen()
	w := &Writer{
		m:      m,
		name:   key,
		h:      h,
		format: f,
		io:     Stats{Opens: 1},
		budget: m.dev.blockSize,
	}
	if f == FormatColumnar {
		w.budget -= colHeaderLen
		w.hdr = colHeadLen + colHeaderLen
	}
	w.buf = make([]byte, w.hdr, w.hdr+min(w.budget, writerStartBuf))
	return w, nil
}

// Append stages one element for writing.
func (w *Writer) Append(v int64) error {
	if w.closed {
		return fmt.Errorf("disk: write to closed writer %s", w.name)
	}
	e := w.encode(v)
	if len(w.buf) > w.hdr && len(w.buf)-w.hdr+len(e) > w.budget {
		if err := w.flush(); err != nil {
			return err
		}
		e = w.encode(v) // a new block's delta base is zero
	}
	if len(w.buf)+len(e) > cap(w.buf) {
		w.buf = slices.Grow(w.buf, max(w.hdr+w.budget, len(w.buf)+len(e))-len(w.buf))
	}
	if w.format == FormatColumnar {
		if w.n%frameStride == 0 {
			w.cks = append(w.cks, uint32(len(w.buf)-w.hdr))
		}
		if w.n == 0 {
			w.mn, w.mx = v, v
		}
		w.mn, w.mx = min(w.mn, v), max(w.mx, v)
		w.n++
		w.prev = v
	}
	w.buf = append(w.buf, e...)
	w.count++
	return nil
}

// encode returns v's bytes in the staged frame's encoding.
func (w *Writer) encode(v int64) []byte {
	if w.format == FormatRaw {
		binary.LittleEndian.PutUint64(w.tmp[:], uint64(v))
		return w.tmp[:ElementSize]
	}
	return w.tmp[:binary.PutVarint(w.tmp[:], v-w.prev)] // wrapping delta; see enc.AppendDelta
}

// AppendSlice stages a slice of elements. A columnar frame takes them in one
// loop that appends each varint delta straight into the staged block, by
// Append's flush rule, so the file's bytes are Append's; a raw frame takes
// them through Append.
func (w *Writer) AppendSlice(vals []int64) error {
	if w.format == FormatRaw || w.closed {
		for _, v := range vals {
			if err := w.Append(v); err != nil {
				return err
			}
		}
		return nil
	}
	buf, hdr, n, prev, mn, mx := w.buf, w.hdr, w.n, w.prev, w.mn, w.mx
	for i, v := range vals {
		d := v - prev // wrapping delta; see enc.AppendDelta
		u := uint64(d<<1) ^ uint64(d>>63)
		l := (bits.Len64(u|1) + 6) / 7
		if len(buf) > hdr && len(buf)-hdr+l > w.budget {
			w.buf, w.n, w.mn, w.mx = buf, n, mn, mx
			if err := w.flush(); err != nil {
				w.count += int64(i)
				return err
			}
			buf, hdr, n = w.buf, w.hdr, 0
			u = uint64(v<<1) ^ uint64(v>>63) // a new block's delta base is zero
			l = (bits.Len64(u|1) + 6) / 7
		}
		if len(buf)+l > cap(buf) {
			buf = slices.Grow(buf, max(hdr+w.budget, len(buf)+l)-len(buf))
		}
		if n%frameStride == 0 {
			w.cks = append(w.cks, uint32(len(buf)-hdr))
			if n == 0 {
				mn, mx = v, v
			}
		}
		mn, mx = min(mn, v), max(mx, v)
		buf = binary.AppendUvarint(buf, u)
		n++
		prev = v
	}
	w.buf, w.n, w.prev, w.mn, w.mx = buf, n, prev, mn, mx
	w.count += int64(len(vals))
	return nil
}

// flush writes the staged block as one backend Write. A raw block is its
// frame as staged. A columnar block is completed in place first: the file's
// head magic before the first block, so torn files never carry a valid head
// without at least one complete block behind it; the header; and, when the
// delta frame lost to plain int64s (unsorted or adversarial data), a raw
// frame over it under its own tag, from the staged frame decoded back. Its
// footer index entry — bounds, checksum and checkpoints — is recorded with
// it; a writer whose write failed is only ever aborted.
func (w *Writer) flush() error {
	if len(w.buf) == w.hdr {
		return nil
	}
	if w.format == FormatColumnar {
		at := w.hdr - colHeaderLen // the header's offset: past the head magic, if any
		copy(w.buf, colMagic[:at])
		tag, frameLen := byte(colTagDelta), len(w.buf)-w.hdr
		if rawLen := w.n * ElementSize; rawLen < frameLen {
			vals := make([]int64, w.n)
			if _, err := enc.DecodeDelta(vals, w.buf[w.hdr:]); err != nil {
				return fmt.Errorf("disk: write %s block %d: %w", w.name, w.blocks, err)
			}
			tag, frameLen = colTagRaw, rawLen
			w.buf = w.buf[:w.hdr+rawLen]
			encodeInto(w.buf[w.hdr:], vals)
			for k := range w.cks {
				w.cks[k] = uint32(k * frameStride * ElementSize)
			}
		}
		putColHeader(w.buf[at:], tag, w.n, frameLen, w.mn, w.mx)
		w.index = binary.LittleEndian.AppendUint64(w.index, uint64(w.off+int64(at)))
		w.index = binary.LittleEndian.AppendUint32(w.index, uint32(w.n))
		w.index = binary.LittleEndian.AppendUint64(w.index, uint64(w.mn))
		w.index = binary.LittleEndian.AppendUint64(w.index, uint64(w.mx))
		w.index = binary.LittleEndian.AppendUint32(w.index, crc32.Checksum(w.buf[at:], crcTable))
		for _, c := range w.cks {
			w.index = binary.LittleEndian.AppendUint32(w.index, c)
		}
		w.hdr = colHeaderLen // the head magic rides on the first block only
	}
	if err := w.emit(w.buf); err != nil {
		return err
	}
	w.off += int64(len(w.buf))
	w.blocks++
	w.buf, w.n, w.prev, w.cks = w.buf[:w.hdr], 0, 0, w.cks[:0]
	return nil
}

// writeFooter appends the index section and trailer of a columnar file as
// one sequential write. An empty columnar file writes nothing at all — a
// zero-byte file is valid in both formats and opens as "no elements".
func (w *Writer) writeFooter() error {
	if w.format != FormatColumnar || w.blocks == 0 {
		return nil
	}
	footer := append(w.index, make([]byte, colTrailerLen)...)
	t := footer[len(w.index):]
	binary.LittleEndian.PutUint64(t[0:], uint64(w.count))
	binary.LittleEndian.PutUint64(t[8:], uint64(w.blocks))
	binary.LittleEndian.PutUint64(t[16:], uint64(len(w.index)))
	binary.LittleEndian.PutUint32(t[24:], crc32.Checksum(footer[:len(w.index)+24], crcTable))
	copy(t[28:], colMagic[:])
	return w.emit(footer)
}

// emit writes p — one block, or a columnar file's footer, which sits at block
// index w.blocks — as one backend Write behind the gate, and counts it as one
// sequential write, on the device and in Stats.
func (w *Writer) emit(p []byte) error {
	err := w.m.gate(OpSeqWrite, w.name, w.blocks)
	if err == nil {
		_, err = w.h.Write(p)
	}
	if err != nil {
		return fmt.Errorf("disk: write %s block %d: %w", w.name, w.blocks, err)
	}
	w.m.countSeqWrite(len(p))
	w.io.SeqWrites++
	w.io.BytesWritten += uint64(len(p))
	return nil
}

// Count returns the number of elements appended so far.
func (w *Writer) Count() int64 { return w.count }

// Stats returns the I/O this writer issued — its create's open and every
// block (and footer) written so far — free of whatever else ran on the
// device meanwhile.
func (w *Writer) Stats() Stats { return w.io }

// Close flushes the final partial block (and, for columnar files, the
// footer) and closes the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.flush()
	if err == nil {
		err = w.writeFooter()
	}
	if err != nil {
		w.h.Close() //nolint:errcheck // already failing
		return err
	}
	if err := w.h.Close(); err != nil {
		return fmt.Errorf("disk: close %s: %w", w.name, err)
	}
	// An open racing the write may have cached the index and handle of the
	// half-written file; the finished file is the first state worth
	// remembering.
	w.m.dev.drop(w.name)
	return nil
}

// Abort closes and removes the file, ignoring errors. Used on failed writes.
func (w *Writer) Abort() {
	w.closed = true
	w.h.Abort()
	w.m.dev.drop(w.name)
}
