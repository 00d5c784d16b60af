package disk

import (
	"encoding/binary"
	"fmt"

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
	buf    []byte // staging: raw = one block of elements; columnar = assembled output block
	fill   int    // raw format: elements staged in buf
	count  int64  // elements written so far
	blocks int64  // blocks flushed so far
	io     Stats  // this writer's own share of the device counters
	closed bool

	// Columnar state. The frame is encoded incrementally as elements arrive;
	// vals retains the block's plain values for the raw-frame fallback and
	// the header's min/max bounds.
	budget int     // max frame bytes per block (blockSize - header)
	frame  []byte  // delta-varint frame of the current block
	vals   []int64 // plain values of the current block
	prev   int64   // last encoded value (delta base)
	off    int64   // file bytes written so far
	index  []byte  // accumulated footer index entries
	tmp    [enc.MaxVarintLen64]byte
}

// Create creates (truncating if present) the named element file in the
// device's default block format and returns a sequential Writer for it.
func (m *Manager) Create(name string) (*Writer, error) {
	return m.CreateFormat(name, m.DefaultBlockFormat())
}

// CreateFormat creates the named element file in an explicit block format,
// overriding the device default — the store pins unsorted batch spills to
// FormatRaw, where delta encoding would only waste space.
func (m *Manager) CreateFormat(name string, f BlockFormat) (*Writer, error) {
	key := m.key(name)
	if f == FormatColumnar && m.dev.blockSize < colMinBlockSize {
		return nil, fmt.Errorf("disk: create %s: block size %d too small for columnar format (min %d)",
			key, m.dev.blockSize, colMinBlockSize)
	}
	if err := m.injected(OpOpen, key, 0); err != nil {
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
	}
	if f == FormatColumnar {
		w.budget = m.dev.blockSize - colHeaderLen
		w.buf = make([]byte, 0, m.dev.blockSize+colHeadLen)
	} else {
		w.buf = make([]byte, m.dev.blockSize)
	}
	return w, nil
}

// Format returns the block format this writer produces.
func (w *Writer) Format() BlockFormat { return w.format }

// Append stages one element for writing.
func (w *Writer) Append(v int64) error {
	if w.closed {
		return fmt.Errorf("disk: write to closed writer %s", w.name)
	}
	if w.format == FormatColumnar {
		return w.appendColumnar(v)
	}
	encodeInto(w.buf[w.fill*ElementSize:], []int64{v})
	w.fill++
	w.count++
	if w.fill == w.m.dev.perBlock {
		return w.flushBlock()
	}
	return nil
}

// AppendSlice stages a slice of elements.
func (w *Writer) AppendSlice(vals []int64) error {
	for _, v := range vals {
		if err := w.Append(v); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer) appendColumnar(v int64) error {
	// Wrapping delta; see enc.AppendDelta.
	n := binary.PutVarint(w.tmp[:], v-w.prev)
	if len(w.vals) > 0 && len(w.frame)+n > w.budget {
		if err := w.flushColumnar(); err != nil {
			return err
		}
		n = binary.PutVarint(w.tmp[:], v) // delta base reset to zero
	}
	w.frame = append(w.frame, w.tmp[:n]...)
	w.prev = v
	w.vals = append(w.vals, v)
	w.count++
	return nil
}

func (w *Writer) flushBlock() error {
	if w.fill == 0 {
		return nil
	}
	if err := w.m.injected(OpSeqWrite, w.name, w.blocks); err != nil {
		return fmt.Errorf("disk: write %s block %d: %w", w.name, w.blocks, err)
	}
	w.m.sleepFor(OpSeqWrite)
	n := w.fill * ElementSize
	if _, err := w.h.Write(w.buf[:n]); err != nil {
		return fmt.Errorf("disk: write %s block %d: %w", w.name, w.blocks, err)
	}
	w.wrote(n)
	w.blocks++
	w.fill = 0
	return nil
}

// flushColumnar writes the staged block — header plus the smaller of the
// delta frame and a plain int64 frame — as one backend Write. The file's
// head magic rides on the first block's write so torn files never carry a
// valid head without at least one complete block behind it.
func (w *Writer) flushColumnar() error {
	cnt := len(w.vals)
	if cnt == 0 {
		return nil
	}
	out := w.buf[:0]
	if w.blocks == 0 {
		out = append(out, colMagic[:]...)
	}
	blockOff := w.off + int64(len(out))
	mn, mx := w.vals[0], w.vals[0]
	for _, v := range w.vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	// Reslicing within w.buf's fixed capacity: head magic (8) + header (25)
	// + frame (≤ blockSize-25) never exceeds cap = blockSize + 8.
	hdr := len(out)
	tag := byte(colTagDelta)
	frameLen := len(w.frame)
	if rawLen := cnt * ElementSize; rawLen <= w.budget && rawLen < frameLen {
		// Unsorted or adversarial data: the delta frame lost to plain
		// int64s, so store the block uncompressed under its own tag.
		tag = colTagRaw
		frameLen = rawLen
		out = out[:hdr+colHeaderLen+rawLen]
		encodeInto(out[hdr+colHeaderLen:], w.vals)
	} else {
		out = out[:hdr+colHeaderLen]
		out = append(out, w.frame...)
	}
	putColHeader(out[hdr:], tag, cnt, frameLen, mn, mx)

	if err := w.m.injected(OpSeqWrite, w.name, w.blocks); err != nil {
		return fmt.Errorf("disk: write %s block %d: %w", w.name, w.blocks, err)
	}
	w.m.sleepFor(OpSeqWrite)
	if _, err := w.h.Write(out); err != nil {
		return fmt.Errorf("disk: write %s block %d: %w", w.name, w.blocks, err)
	}
	w.wrote(len(out))
	w.buf = out[:0]

	var e [colIndexEntryLen]byte
	binary.LittleEndian.PutUint64(e[0:], uint64(blockOff))
	binary.LittleEndian.PutUint32(e[8:], uint32(cnt))
	binary.LittleEndian.PutUint64(e[12:], uint64(mn))
	binary.LittleEndian.PutUint64(e[20:], uint64(mx))
	w.index = append(w.index, e[:]...)

	w.off += int64(len(out))
	w.blocks++
	w.frame = w.frame[:0]
	w.vals = w.vals[:0]
	w.prev = 0
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
	t := footer[len(footer)-colTrailerLen:]
	binary.LittleEndian.PutUint64(t[0:], uint64(w.count))
	binary.LittleEndian.PutUint64(t[8:], uint64(w.blocks))
	binary.LittleEndian.PutUint64(t[16:], uint64(len(w.index)))
	copy(t[24:], colMagic[:])
	if err := w.m.injected(OpSeqWrite, w.name, w.blocks); err != nil {
		return fmt.Errorf("disk: write %s footer: %w", w.name, err)
	}
	w.m.sleepFor(OpSeqWrite)
	if _, err := w.h.Write(footer); err != nil {
		return fmt.Errorf("disk: write %s footer: %w", w.name, err)
	}
	w.wrote(len(footer))
	return nil
}

// wrote counts one sequential write of nbytes, on the device and in Stats.
func (w *Writer) wrote(nbytes int) {
	w.m.countSeqWrite(nbytes)
	w.io.SeqWrites++
	w.io.BytesWritten += uint64(nbytes)
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
	var err error
	if w.format == FormatColumnar {
		err = w.flushColumnar()
	} else {
		err = w.flushBlock()
	}
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
	// A Size or open racing the write may have cached a provisional "format
	// 0" verdict for the half-written file; the finished file is the first
	// state worth remembering.
	w.m.dev.dropIndex(w.name)
	return nil
}

// Abort closes and removes the file, ignoring errors. Used on failed writes.
func (w *Writer) Abort() {
	w.closed = true
	w.h.Abort()
	w.m.dev.dropIndex(w.name)
}
