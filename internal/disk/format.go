package disk

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/enc"
)

// BlockFormat is the on-disk layout of an element file. There is one writer
// per file kind and no knob: the engine writes partitions, sort runs and
// merge outputs columnar and batch spills raw; readers auto-detect, so both
// formats always open.
//
// Format 0 ("raw") is the seed layout: a headerless flat file of
// little-endian int64s, blockSize bytes per block. It remains the format of
// unsorted batch spills and the backward-compatibility target — files
// written by earlier releases are format 0 and still open.
//
// Format 1 ("columnar") is the compressed layout: a self-describing file of
// variable-length blocks, each carrying a 25-byte header (frame tag, element
// count, frame byte length, min, max) followed by a delta + zig-zag varint
// frame (internal/enc) — or a raw int64 frame when the varint encoding would
// be larger, e.g. for unsorted data. Blocks are packed until the header plus
// frame would exceed the device block size, so sorted runs hold several
// times more elements per block than format 0. A footer (per-block index +
// trailer) makes the file self-describing: element counts come from block
// headers, not from size/ElementSize arithmetic, and readers can consult a
// block's min/max bounds without decoding it.
//
// A cold read of one block: at the default 100 KB a sorted partition's block
// holds ~57 000 values at ~1.75 B each (format 0: 12 800), so it is one
// backend call and the decode of 456 KB of elements — enc.DecodeDelta, not the
// fetch, is most of it. The bytes are staged in a pooled buffer sized from the
// file's own index; the decoded slice is the read's one allocation, and the
// cache keeps it in a shard that is a pure function of (file, block).
type BlockFormat uint8

const (
	// FormatRaw is format 0: headerless little-endian int64s.
	FormatRaw BlockFormat = iota
	// FormatColumnar is format 1: header-tagged compressed blocks with a
	// trailing block index.
	FormatColumnar
)

// String names the format.
func (f BlockFormat) String() string {
	switch f {
	case FormatRaw:
		return "raw"
	case FormatColumnar:
		return "columnar"
	default:
		return fmt.Sprintf("format(%d)", uint8(f))
	}
}

// Columnar file geometry. Layout:
//
//	head    8 B   magic "HSQC" | version 1 | 3 zero bytes
//	blocks  var   per block: header (25 B) + frame (≤ blockSize-25 B)
//	index   28 B × blocks: offset u64 | count u32 | min i64 | max i64
//	trailer 32 B  totalElems i64 | blockCount i64 | indexLen i64 | head magic
//
// Per-block header: tag u8 (0 raw int64 frame, 1 delta varint frame) |
// count u32 | frame byte length u32 | min i64 | max i64. All little-endian.
//
// Detection requires BOTH the head magic and a self-consistent trailer
// (matching magic, index length, monotone offsets, counts summing to the
// trailer's total), so a format-0 file whose first element happens to collide
// with the magic still opens as format 0.
const (
	colHeadLen       = 8
	colHeaderLen     = 25
	colIndexEntryLen = 28
	colTrailerLen    = 32
	// colMinBlockSize is the smallest device block size the columnar format
	// supports: the header plus at least one worst-case varint element.
	colMinBlockSize = colHeaderLen + enc.MaxVarintLen64 + 13 // = 48

	colTagRaw   = 0
	colTagDelta = 1
)

// colMagic opens (and, inside the trailer, closes) every columnar file.
var colMagic = [colHeadLen]byte{'H', 'S', 'Q', 'C', 1, 0, 0, 0}

// colIndex is the parsed footer of one columnar file: everything a reader
// needs to locate, size and bound-check blocks without touching their frames.
type colIndex struct {
	// offsets[i] is the file offset of block i's header; offsets[nblocks]
	// is the end of the data region (= start of the index section).
	offsets []int64
	// starts[i] is the element index of block i's first element;
	// starts[nblocks] is the total element count.
	starts []int64
	mins   []int64
	maxs   []int64
}

func (ix *colIndex) blocks() int64 { return int64(len(ix.offsets)) - 1 }
func (ix *colIndex) total() int64  { return ix.starts[len(ix.starts)-1] }

// frameLen returns the byte length of block i's frame (header excluded).
func (ix *colIndex) frameLen(i int64) int {
	return int(ix.offsets[i+1]-ix.offsets[i]) - colHeaderLen
}

// blockCount returns the number of elements in block i.
func (ix *colIndex) blockCount(i int64) int64 { return ix.starts[i+1] - ix.starts[i] }

// findBlock returns the index of the block containing element e.
func (ix *colIndex) findBlock(e int64) int64 {
	// First block whose start exceeds e, minus one.
	n := len(ix.starts)
	i := sort.Search(n, func(i int) bool { return ix.starts[i] > e })
	return int64(i - 1)
}

// putColHeader encodes one block header into buf (≥ colHeaderLen bytes).
func putColHeader(buf []byte, tag byte, count int, frameLen int, min, max int64) {
	buf[0] = tag
	binary.LittleEndian.PutUint32(buf[1:], uint32(count))
	binary.LittleEndian.PutUint32(buf[5:], uint32(frameLen))
	binary.LittleEndian.PutUint64(buf[9:], uint64(min))
	binary.LittleEndian.PutUint64(buf[17:], uint64(max))
}

// colHeader is one decoded block header.
type colHeader struct {
	tag      byte
	count    int
	frameLen int
	min, max int64
}

func parseColHeader(buf []byte) colHeader {
	return colHeader{
		tag:      buf[0],
		count:    int(binary.LittleEndian.Uint32(buf[1:])),
		frameLen: int(binary.LittleEndian.Uint32(buf[5:])),
		min:      int64(binary.LittleEndian.Uint64(buf[9:])),
		max:      int64(binary.LittleEndian.Uint64(buf[17:])),
	}
}

// decodeColBlock parses one block (header + frame) from buf into dst, which
// must hold wantCount elements. It cross-checks the header against the index
// so a torn or misdirected read fails loudly instead of decoding garbage.
func decodeColBlock(dst []int64, buf []byte, wantCount int) error {
	if len(buf) < colHeaderLen {
		return fmt.Errorf("short block: %d bytes", len(buf))
	}
	h := parseColHeader(buf)
	if h.count != wantCount {
		return fmt.Errorf("header count %d, index says %d", h.count, wantCount)
	}
	if colHeaderLen+h.frameLen != len(buf) {
		return fmt.Errorf("header frame length %d, index implies %d", h.frameLen, len(buf)-colHeaderLen)
	}
	frame := buf[colHeaderLen:]
	switch h.tag {
	case colTagRaw:
		if h.frameLen != wantCount*ElementSize {
			return fmt.Errorf("raw frame of %d bytes for %d elements", h.frameLen, wantCount)
		}
		decodeInto(dst[:wantCount], frame)
	case colTagDelta:
		rest, err := enc.DecodeDelta(dst[:wantCount], frame)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("frame has %d trailing bytes", len(rest))
		}
	default:
		return fmt.Errorf("unknown frame tag %d", h.tag)
	}
	return nil
}

// loadColumnarIndex inspects an open handle and returns the parsed columnar
// index, or (nil, nil) when the file is format 0. Index and trailer reads
// are file metadata, outside the paper's block cost model, so they are not
// block-accounted; the parsed index is cached device-wide by the Manager so
// repeated opens of one partition pay the parse once.
func loadColumnarIndex(h ReadHandle, size int64) (*colIndex, error) {
	if size < colHeadLen+colTrailerLen {
		return nil, nil // too small to be columnar, including empty files
	}
	var head [colHeadLen]byte
	if _, err := io.ReadFull(io.NewSectionReader(h, 0, colHeadLen), head[:]); err != nil {
		return nil, err
	}
	if head != colMagic {
		return nil, nil
	}
	var trailer [colTrailerLen]byte
	if _, err := io.ReadFull(io.NewSectionReader(h, size-colTrailerLen, colTrailerLen), trailer[:]); err != nil {
		return nil, err
	}
	if [colHeadLen]byte(trailer[24:32]) != colMagic {
		// Head magic without a trailer magic: a format-0 file whose first
		// element collides with the magic constant.
		return nil, nil
	}
	total := int64(binary.LittleEndian.Uint64(trailer[0:]))
	nblocks := int64(binary.LittleEndian.Uint64(trailer[8:]))
	indexLen := int64(binary.LittleEndian.Uint64(trailer[16:]))
	// Any inconsistency from here on falls back to format 0 rather than
	// failing: a raw file can collide with both magics by storing the magic
	// value as elements, and rejecting a legitimate raw file would break
	// compatibility. Columnar files written by this package always carry a
	// consistent footer — the only columnar files without one are torn,
	// unreferenced orphans that recovery deletes without reading.
	if total < 0 || nblocks <= 0 || indexLen != nblocks*colIndexEntryLen ||
		colHeadLen+indexLen+colTrailerLen > size {
		return nil, nil
	}
	dataEnd := size - colTrailerLen - indexLen
	raw := make([]byte, indexLen)
	if _, err := io.ReadFull(io.NewSectionReader(h, dataEnd, indexLen), raw); err != nil {
		return nil, err
	}
	ix := &colIndex{
		offsets: make([]int64, nblocks+1),
		starts:  make([]int64, nblocks+1),
		mins:    make([]int64, nblocks),
		maxs:    make([]int64, nblocks),
	}
	var elems int64
	for i := int64(0); i < nblocks; i++ {
		e := raw[i*colIndexEntryLen:]
		off := int64(binary.LittleEndian.Uint64(e[0:]))
		cnt := int64(binary.LittleEndian.Uint32(e[8:]))
		ix.offsets[i] = off
		ix.starts[i] = elems
		ix.mins[i] = int64(binary.LittleEndian.Uint64(e[12:]))
		ix.maxs[i] = int64(binary.LittleEndian.Uint64(e[20:]))
		if off < colHeadLen || cnt <= 0 || (i > 0 && off <= ix.offsets[i-1]) {
			return nil, nil
		}
		elems += cnt
	}
	ix.offsets[nblocks] = dataEnd
	ix.starts[nblocks] = elems
	if elems != total || ix.offsets[0] != colHeadLen {
		return nil, nil
	}
	for i := int64(0); i < nblocks; i++ {
		if ix.frameLen(i) <= 0 {
			return nil, nil
		}
	}
	return ix, nil
}

// columnarIndex returns the parsed index of the named (device-wide) file, or
// nil for a format-0 file, consulting and filling the device-wide index
// cache. The handle is only read on a cache miss.
func (m *Manager) columnarIndex(key string, h ReadHandle) (*colIndex, error) {
	d := m.dev
	d.idxMu.Lock()
	if ix, ok := d.idxCache[key]; ok {
		d.idxMu.Unlock()
		return ix, nil
	}
	d.idxMu.Unlock()
	size, err := h.Size()
	if err != nil {
		return nil, err
	}
	ix, err := loadColumnarIndex(h, size)
	if err != nil {
		return nil, err
	}
	d.idxMu.Lock()
	if d.idxCache == nil {
		d.idxCache = make(map[string]*colIndex)
	}
	d.idxCache[key] = ix // nil marks a confirmed format-0 file
	d.idxMu.Unlock()
	return ix, nil
}

// dropIndex forgets the cached index of a removed or truncated file.
func (d *device) dropIndex(key string) {
	d.idxMu.Lock()
	delete(d.idxCache, key)
	d.idxMu.Unlock()
}
