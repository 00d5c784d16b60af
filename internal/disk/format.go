package disk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/enc"
)

// BlockFormat is the on-disk layout of an element file. There is one writer
// and no knob: the engine writes partitions, sort runs and merge outputs
// columnar; readers auto-detect, so both formats always open.
//
// Format 0 ("raw") is the seed layout: a headerless flat file of
// little-endian int64s, blockSize bytes per block. It remains the
// backward-compatibility target — files written by earlier releases are
// format 0 and still open.
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
// block's min/max bounds without decoding it. Version 2's footer also holds
// each block's CRC-32C and checkpoints, and a CRC-32C of its own.
//
// A cold read of one block: at the default 100 KB a sorted partition's block
// holds ~57 000 values at ~1.75 B each (format 0: 12 800), so it is one
// backend call into a buffer of its own, the block's CRC-32C and the header
// checks — no value is decoded, and the offset where every frameStride-th
// value starts comes from the footer. The resulting Frame owns its bytes, the
// cache keeps it in a shard that is a pure function of (file, block), and a
// probe decodes only the run it searches (Frame.Decode): one summary gap,
// ~200 values, not 57 000.
type BlockFormat uint8

const (
	// FormatRaw is format 0: headerless little-endian int64s.
	FormatRaw BlockFormat = iota
	// FormatColumnar is format 1: header-tagged compressed blocks with a
	// trailing block index, in version 2 (version 1 is read, not written).
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

// Columnar file geometry. Version 2, what the Writer writes:
//
//	head    8 B   magic "HSQC" | version 2 | 3 zero bytes
//	blocks  var   per block: header (25 B) + frame (≤ blockSize-25 B)
//	index   per block, 32 B + 4 B × ⌈count/frameStride⌉:
//	        offset u64 | count u32 | min i64 | max i64 | crc u32 | checkpoints u32…
//	trailer 36 B  totalElems i64 | blockCount i64 | indexLen i64 | footer crc u32 | magic
//
// Per-block header: tag u8 (0 raw int64 frame, 1 delta varint frame) |
// count u32 | frame byte length u32 | min i64 | max i64. All little-endian.
// A block's crc is the CRC-32C (Castagnoli) of its header and frame; its
// checkpoint k is the frame offset of value k·frameStride (k·frameStride·8
// in a raw frame). The footer crc covers the index and the trailer's first
// 24 bytes.
//
// Version 1, written by earlier releases and still read: version 1 in both
// magics, 28-byte index entries (no crc, no checkpoints) and a 32-byte
// trailer (no footer crc). Nothing vouches for its bytes, so a random read
// scans each delta frame with enc.ScanDelta, counted in Stats.V1Blocks.
//
// Detection reads the head and the tail of the file. A file carrying the
// version-2 magic at either end opens as version 2 or is refused: a damaged
// magic or footer is an error, never a format-0 file. A version-1 head magic
// opens as version 1 only with a self-consistent trailer (matching magic,
// index length, monotone offsets, counts summing to the trailer's total), so
// a format-0 file whose first element happens to collide with that magic
// still opens as format 0.
const (
	colHeadLen         = 8
	colHeaderLen       = 25
	colIndexEntryLen   = 32
	colTrailerLen      = 36
	colIndexEntryLenV1 = 28
	colTrailerLenV1    = 32
	// colMinBlockSize is the smallest device block size the columnar format
	// supports: the header plus at least one worst-case varint element.
	colMinBlockSize = colHeaderLen + enc.MaxVarintLen64 + 13 // = 48

	colTagRaw   = 0
	colTagDelta = 1
)

// colMagic opens (and, inside the trailer, closes) every columnar file the
// Writer writes; colMagicV1 those of earlier releases.
var (
	colMagic   = [colHeadLen]byte{'H', 'S', 'Q', 'C', 2, 0, 0, 0}
	colMagicV1 = [colHeadLen]byte{'H', 'S', 'Q', 'C', 1, 0, 0, 0}
)

// crcTable is CRC-32C's: blocks and footers are checked with it.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// colIndex is the block index of one element file: everything a reader needs
// to locate, size and bound-check blocks without touching their frames. A
// columnar file's comes from its footer; a format-0 file's is laid over the
// device geometry (rawIndex), so both formats read through one path.
type colIndex struct {
	// raw marks a format-0 file: its blocks are plain int64 frames with no
	// header, and it carries no bounds (mins and maxs are nil).
	raw bool
	// offsets[i] is the file offset of block i; offsets[nblocks] is the end
	// of the data region (a columnar file's index section starts there).
	offsets []int64
	// starts[i] is the element index of block i's first element;
	// starts[nblocks] is the total element count.
	starts []int64
	mins   []int64
	maxs   []int64
	// crcs[i] is block i's CRC-32C and cks[i] its checkpoints, from a
	// version-2 footer; both are nil for format 0 and for version 1.
	crcs []uint32
	cks  [][]int32
}

// v1 reports whether the file is columnar version 1, whose blocks carry no
// checksum.
func (ix *colIndex) v1() bool { return !ix.raw && ix.crcs == nil }

func (ix *colIndex) blocks() int64 { return int64(len(ix.offsets)) - 1 }
func (ix *colIndex) total() int64  { return ix.starts[len(ix.starts)-1] }

// frameLen returns the byte length of block i's frame (header excluded).
func (ix *colIndex) frameLen(i int64) int {
	return int(ix.offsets[i+1]-ix.offsets[i]) - colHeaderLen
}

// blockCount returns the number of elements in block i.
func (ix *colIndex) blockCount(i int64) int64 { return ix.starts[i+1] - ix.starts[i] }

// decode decodes block i from buf, its bytes as the index locates them, into
// dst, which must hold the block's elements: the sequential scans' read, so a
// merge never copies a damaged block into a new file under a fresh checksum.
func (ix *colIndex) decode(dst []int64, buf []byte, i int64) error {
	cnt := int(ix.blockCount(i))
	if ix.raw {
		decodeInto(dst[:cnt], buf)
		return nil
	}
	if err := ix.checkCRC(buf, i); err != nil {
		return err
	}
	return decodeColBlock(dst, buf, cnt)
}

// checkCRC checks block i's bytes against the checksum its index entry
// carries, if the file has one.
func (ix *colIndex) checkCRC(buf []byte, i int64) error {
	if ix.crcs == nil {
		return nil
	}
	if c := crc32.Checksum(buf, crcTable); c != ix.crcs[i] {
		return fmt.Errorf("block checksum %08x, index says %08x", c, ix.crcs[i])
	}
	return nil
}

// rawIndex lays a format-0 file of size bytes over the device geometry: block
// i holds bytes [i·blockSize, (i+1)·blockSize), the last block the remainder.
// A size that is not a whole number of elements is a torn file.
func rawIndex(size int64, blockSize int) (*colIndex, error) {
	if size%ElementSize != 0 {
		return nil, fmt.Errorf("torn element: %d bytes is not a whole number of %d-byte elements", size, ElementSize)
	}
	bs, per := int64(blockSize), int64(blockSize/ElementSize)
	nb := (size + bs - 1) / bs
	ix := &colIndex{raw: true, offsets: make([]int64, nb+1), starts: make([]int64, nb+1)}
	for i := int64(0); i < nb; i++ {
		ix.offsets[i], ix.starts[i] = i*bs, i*per
	}
	ix.offsets[nb], ix.starts[nb] = size, size/ElementSize
	return ix, nil
}

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

// colFrame checks one block (header + frame) against the index — so a torn or
// misdirected read fails loudly instead of decoding garbage — and returns its
// frame tag and bytes. A delta frame's varints are checked by whoever decodes
// or scans them.
func colFrame(buf []byte, wantCount int) (tag byte, frame []byte, err error) {
	if len(buf) < colHeaderLen {
		return 0, nil, fmt.Errorf("short block: %d bytes", len(buf))
	}
	tag = buf[0]
	count := int(binary.LittleEndian.Uint32(buf[1:]))
	frameLen := int(binary.LittleEndian.Uint32(buf[5:]))
	switch {
	case count != wantCount:
		return 0, nil, fmt.Errorf("header count %d, index says %d", count, wantCount)
	case colHeaderLen+frameLen != len(buf):
		return 0, nil, fmt.Errorf("header frame length %d, index implies %d", frameLen, len(buf)-colHeaderLen)
	case tag == colTagRaw && frameLen != wantCount*ElementSize:
		return 0, nil, fmt.Errorf("raw frame of %d bytes for %d elements", frameLen, wantCount)
	case tag != colTagRaw && tag != colTagDelta:
		return 0, nil, fmt.Errorf("unknown frame tag %d", tag)
	}
	return tag, buf[colHeaderLen:], nil
}

// decodeColBlock parses one block (header + frame) from buf into dst, which
// must hold wantCount elements: the sequential scans' whole-block decode.
func decodeColBlock(dst []int64, buf []byte, wantCount int) error {
	tag, frame, err := colFrame(buf, wantCount)
	if err != nil {
		return err
	}
	if tag == colTagRaw {
		decodeInto(dst[:wantCount], frame)
		return nil
	}
	rest, err := enc.DecodeDelta(dst[:wantCount], frame)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("frame has %d trailing bytes", len(rest))
	}
	return err
}

// frame checks block i, its bytes as the index locates them, and returns it
// as a Frame that keeps buf: a format-0 block or a raw-tagged one as is, a
// delta frame with its checkpoints. A version-2 block is checked by its
// checksum and takes its checkpoints from the index; a version-1 delta frame
// is checked by enc.ScanDelta, which accepts it exactly as decodeColBlock
// would and records the checkpoints on the way.
func (ix *colIndex) frame(buf []byte, i int64) (*Frame, error) {
	f := &Frame{n: int(ix.blockCount(i)), bytes: buf}
	if ix.raw {
		return f, nil
	}
	if err := ix.checkCRC(buf, i); err != nil {
		return nil, err
	}
	tag, frame, err := colFrame(buf, f.n)
	if err != nil {
		return nil, err
	}
	f.bytes = frame
	switch {
	case tag == colTagRaw:
	case ix.crcs != nil:
		f.offs = ix.cks[i]
	default:
		if f.offs, err = enc.ScanDelta(frame, f.n, frameStride); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// loadColumnarIndex inspects an open handle and returns the parsed columnar
// index, or (nil, nil) when the file is format 0. It reads the head, the tail
// (which holds the trailer of either version) and the index. Index and
// trailer reads are file metadata, outside the paper's block cost model, so
// they are not block-accounted; the parsed index is cached device-wide by the
// Manager so repeated opens of one partition pay the parse once.
func loadColumnarIndex(h ReadHandle, size int64) (*colIndex, error) {
	if size < colHeadLen {
		return nil, nil // too small to be columnar, including empty files
	}
	var head [colHeadLen]byte
	if _, err := io.ReadFull(io.NewSectionReader(h, 0, colHeadLen), head[:]); err != nil {
		return nil, err
	}
	// The tail is right-aligned, so both versions' trailers end where it does.
	var tail [colTrailerLen]byte
	tl := min(size-colHeadLen, colTrailerLen)
	if _, err := io.ReadFull(io.NewSectionReader(h, size-tl, tl), tail[colTrailerLen-tl:]); err != nil {
		return nil, err
	}
	v2 := head == colMagic || [colHeadLen]byte(tail[colTrailerLen-colHeadLen:]) == colMagic
	if !v2 && head != colMagicV1 {
		return nil, nil
	}
	trailerLen, entryLen, magic := int64(colTrailerLen), int64(colIndexEntryLen), colMagic
	if !v2 {
		trailerLen, entryLen, magic = colTrailerLenV1, colIndexEntryLenV1, colMagicV1
	}
	t := tail[colTrailerLen-trailerLen:]
	total := int64(binary.LittleEndian.Uint64(t[0:]))
	nblocks := int64(binary.LittleEndian.Uint64(t[8:]))
	indexLen := int64(binary.LittleEndian.Uint64(t[16:]))
	var bad error
	switch {
	case head != magic:
		bad = fmt.Errorf("head magic %x behind a version-2 trailer", head)
	case [colHeadLen]byte(t[trailerLen-colHeadLen:]) != magic:
		bad = fmt.Errorf("trailer magic %x behind a version-%d head", t[trailerLen-colHeadLen:], magic[4])
	case size < colHeadLen+trailerLen:
		bad = fmt.Errorf("%d bytes is too short for a head and a trailer", size)
	case total < 0 || nblocks <= 0 || indexLen > size-colHeadLen-trailerLen || nblocks > indexLen/entryLen:
		bad = fmt.Errorf("trailer of %d elements in %d blocks behind a %d-byte index does not fit %d bytes",
			total, nblocks, indexLen, size)
	}
	if bad == nil {
		dataEnd := size - trailerLen - indexLen
		raw := make([]byte, indexLen)
		if _, err := io.ReadFull(io.NewSectionReader(h, dataEnd, indexLen), raw); err != nil {
			return nil, err
		}
		var ix *colIndex
		if ix, bad = parseIndex(raw, t, dataEnd, v2); bad == nil {
			return ix, nil
		}
	}
	if v2 {
		return nil, fmt.Errorf("columnar version 2: %w", bad)
	}
	// A version-1 head magic without a consistent footer is a format-0 file
	// whose first element collides with the magic constant: a raw file can
	// collide with both magics by storing the magic value as elements, and
	// rejecting a legitimate raw file would break compatibility. Version-1
	// files written by earlier releases always carry a consistent footer —
	// the only ones without are torn, unreferenced orphans that recovery
	// deletes without reading.
	return nil, nil
}

// parseIndex parses the index section raw of a file whose data ends at
// dataEnd, behind trailer t. A version-2 index must match the footer
// checksum; its entries carry a block checksum and checkpoints.
func parseIndex(raw, t []byte, dataEnd int64, v2 bool) (*colIndex, error) {
	total := int64(binary.LittleEndian.Uint64(t[0:]))
	nblocks := int64(binary.LittleEndian.Uint64(t[8:]))
	entryLen := int64(colIndexEntryLenV1)
	ix := &colIndex{
		offsets: make([]int64, nblocks+1),
		starts:  make([]int64, nblocks+1),
		mins:    make([]int64, nblocks),
		maxs:    make([]int64, nblocks),
	}
	var cks []int32
	if v2 {
		want := binary.LittleEndian.Uint32(t[24:])
		if c := crc32.Update(crc32.Checksum(raw, crcTable), crcTable, t[:24]); c != want {
			return nil, fmt.Errorf("footer checksum %08x, trailer says %08x", c, want)
		}
		entryLen = colIndexEntryLen
		ix.crcs, ix.cks = make([]uint32, nblocks), make([][]int32, nblocks)
		cks = make([]int32, (int64(len(raw))-nblocks*entryLen)/4)
	}
	var elems int64
	p := int64(0)
	for i := range nblocks {
		if int64(len(raw))-p < entryLen {
			return nil, fmt.Errorf("index ends inside block %d's entry", i)
		}
		e := raw[p:]
		p += entryLen
		off := int64(binary.LittleEndian.Uint64(e[0:]))
		cnt := int64(binary.LittleEndian.Uint32(e[8:]))
		ix.offsets[i], ix.starts[i] = off, elems
		ix.mins[i] = int64(binary.LittleEndian.Uint64(e[12:]))
		ix.maxs[i] = int64(binary.LittleEndian.Uint64(e[20:]))
		nck := int64(0)
		if v2 {
			ix.crcs[i] = binary.LittleEndian.Uint32(e[28:])
			nck = (cnt + frameStride - 1) / frameStride
		}
		if cnt <= 0 || off < colHeadLen || (i > 0 && off <= ix.offsets[i-1]) || off >= dataEnd ||
			nck > int64(len(cks)) {
			return nil, fmt.Errorf("index entry %d (offset %d, %d elements) is out of place", i, off, cnt)
		}
		if v2 {
			ix.cks[i], cks = cks[:nck:nck], cks[nck:]
			for k := range ix.cks[i] {
				ix.cks[i][k] = int32(binary.LittleEndian.Uint32(raw[p:]))
				p += 4
			}
		}
		elems += cnt
	}
	ix.offsets[nblocks], ix.starts[nblocks] = dataEnd, elems
	if elems != total || ix.offsets[0] != colHeadLen || p != int64(len(raw)) {
		return nil, fmt.Errorf("index of %d elements in %d bytes, trailer says %d in %d", elems, p, total, len(raw))
	}
	for i := range nblocks {
		if ix.frameLen(i) <= 0 {
			return nil, fmt.Errorf("block %d has a frame of %d bytes", i, ix.frameLen(i))
		}
		if v2 {
			if err := checkCheckpoints(ix.cks[i], ix.frameLen(i)); err != nil {
				return nil, fmt.Errorf("block %d: %w", i, err)
			}
		}
	}
	return ix, nil
}

// checkCheckpoints holds one block's checkpoints to what any frame of its
// count allows: the first is 0, each lies at least frameStride bytes past
// the one before (every delta takes a byte), and all lie inside the frame. So
// a run decode never starts outside the frame, whatever the frame holds.
func checkCheckpoints(cks []int32, frameLen int) error {
	for k, c := range cks {
		if (k == 0 && c != 0) || (k > 0 && int64(c)-int64(cks[k-1]) < frameStride) || int(c) >= frameLen {
			return fmt.Errorf("checkpoint %d at byte %d of a %d-byte frame", k, c, frameLen)
		}
	}
	return nil
}

// index returns the block index of the named (device-wide) file — its
// columnar footer, or the device geometry laid over a format-0 file —
// consulting and filling the device-wide index cache. The handle is only read
// on a cache miss.
func (m *Manager) index(key string, h ReadHandle) (*colIndex, error) {
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
	if ix == nil && err == nil {
		ix, err = rawIndex(size, d.blockSize)
	}
	if err != nil {
		return nil, err
	}
	d.idxMu.Lock()
	if d.idxCache == nil {
		d.idxCache = make(map[string]*colIndex)
	}
	d.idxCache[key] = ix
	d.idxMu.Unlock()
	return ix, nil
}

// dropIndex forgets the cached index of a removed or truncated file.
func (d *device) dropIndex(key string) {
	d.idxMu.Lock()
	delete(d.idxCache, key)
	d.idxMu.Unlock()
}
