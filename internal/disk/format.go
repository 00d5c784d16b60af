package disk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync/atomic"

	"repro/internal/enc"
)

// BlockFormat is the on-disk layout of an element file. A device reads and
// writes the one format it is set to (Manager.SetBlockFormat); nothing is
// detected per file. The engine's devices are columnar; a device left at its
// default is raw, the paper's block model, which internal/experiments counts.
//
// Format 0 ("raw") is the seed layout: a headerless flat file of
// little-endian int64s, blockSize bytes per block.
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
// block's min/max bounds without decoding it. The footer also holds each
// block's CRC-32C and checkpoints, and a CRC-32C of its own.
//
// A cold read of one block: at the default 100 KB a sorted partition's block
// holds ~57 000 values at ~1.75 B each (format 0: 12 800). Its first random
// read in the process is one backend call into a buffer of its own, the
// block's CRC-32C and the header checks — no value is decoded, and the
// offset where every frameStride-th value starts comes from the footer —
// and it derives each stride's CRC-32C into the file's index. Every later
// read fetches only the strides that cover the run it decodes, about 450
// bytes each, checked one by one. The cache keeps frames in a shard that is
// a pure function of (file, block), and a probe decodes only the run it
// searches (Frame.Decode): one summary gap, ~200 values, not 57 000.
type BlockFormat uint8

const (
	// FormatRaw is format 0: headerless little-endian int64s.
	FormatRaw BlockFormat = iota
	// FormatColumnar is format 1: header-tagged compressed blocks with a
	// trailing block index, in version 2.
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

// Columnar file geometry, version 2:
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
// A columnar device opens a file only if both magics are version 2's and the
// footer checks out; a zero-byte file is the Writer's empty file. Anything
// else — a raw file, a version-1 file of an earlier release, a torn head or
// footer — is refused at open, by name.
const (
	colHeadLen       = 8
	colHeaderLen     = 25
	colIndexEntryLen = 32
	colTrailerLen    = 36
	// colMinBlockSize is the smallest device block size the columnar format
	// supports: the header plus at least one worst-case varint element.
	colMinBlockSize = colHeaderLen + enc.MaxVarintLen64 + 13 // = 48

	colTagRaw   = 0
	colTagDelta = 1
)

// colMagic opens (and, inside the trailer, closes) every columnar file.
var colMagic = [colHeadLen]byte{'H', 'S', 'Q', 'C', 2, 0, 0, 0}

// crcTable is CRC-32C's: blocks and footers are checked with it.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// colIndex is the block index of one element file: everything a reader needs
// to locate, size and bound-check blocks without touching their frames. A
// columnar device's comes from the file's footer; a raw device lays its
// geometry over the file (rawIndex), so both formats read through one path.
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
	// crcs[i] is block i's CRC-32C and cks[i] its checkpoints, from the
	// footer; both are nil for format 0.
	crcs []uint32
	cks  [][]int32
	// strides[i] is what the first random read of columnar block i in this
	// process derived from the block it checked whole: its frame tag and the
	// CRC-32C of each stride, so later reads fetch and check the strides
	// they decode, not the block. Nil until then (and for format 0, which
	// keeps whole-block reads). Derived state, never on disk.
	strides []atomic.Pointer[blockStrides]
}

// blockStrides is one block's derived stride state: stride k is its frame's
// values [k·frameStride, (k+1)·frameStride), at the bytes from its
// checkpoint to the next (or the frame's end).
type blockStrides struct {
	raw  bool     // the frame is raw-tagged: stride k starts at k·frameStride·8
	crcs []uint32 // crcs[k] is stride k's CRC-32C
}

// derived returns block i's stride state, or nil before its first random
// read (and always for format 0).
func (ix *colIndex) derived(i int64) *blockStrides {
	if ix.strides == nil {
		return nil
	}
	return ix.strides[i].Load()
}

// derive records the stride state of block i from f, its whole frame as its
// block checksum vouched for it, unless a read before it did. Concurrent
// first reads of one block may each derive; they check the same bytes, so
// whichever lands first is the one every later read checks against.
func (ix *colIndex) derive(i int64, f *Frame) {
	if ix.strides == nil || ix.strides[i].Load() != nil {
		return
	}
	s := &blockStrides{raw: f.offs == nil, crcs: make([]uint32, len(ix.cks[i]))}
	for k := range s.crcs {
		s.crcs[k] = crc32.Checksum(f.bytes[ix.strideOff(i, s, k):ix.strideOff(i, s, k+1)], crcTable)
	}
	ix.strides[i].CompareAndSwap(nil, s)
}

// strideOff returns where stride k of block i starts in its frame; k at the
// stride count gives the frame's length. The checkpoints parseIndex checked
// keep every stride inside the frame and non-empty.
func (ix *colIndex) strideOff(i int64, s *blockStrides, k int) int {
	switch {
	case k == len(ix.cks[i]):
		return ix.frameLen(i)
	case s.raw:
		return k * frameStride * ElementSize
	}
	return int(ix.cks[i][k])
}

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
// carries.
func (ix *colIndex) checkCRC(buf []byte, i int64) error {
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
// them.
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
// delta frame with its checkpoints. A columnar block is checked by its
// checksum and takes its checkpoints from the index.
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
	if tag != colTagRaw {
		f.offs = ix.cks[i]
	}
	return f, nil
}

// loadColumnarIndex reads and checks the footer of a columnar file of size
// bytes and returns its index. A zero-byte file is the Writer's empty file
// and has no blocks; any other file must be version 2 at both ends, or it is
// refused with what was found instead. It reads the head, the trailer and
// the index: file metadata, outside the paper's block cost model, so they
// are not block-accounted; the parsed index is cached device-wide by the
// Manager so repeated opens of one partition pay the parse once.
func loadColumnarIndex(h ReadHandle, size int64) (*colIndex, error) {
	if size == 0 {
		return &colIndex{offsets: []int64{0}, starts: []int64{0}}, nil
	}
	if size < colHeadLen+colTrailerLen {
		return nil, fmt.Errorf("columnar version 2: %d bytes is too short for a head and a trailer: "+
			"a raw file of an earlier release, or a torn one", size)
	}
	var head [colHeadLen]byte
	if _, err := io.ReadFull(io.NewSectionReader(h, 0, colHeadLen), head[:]); err != nil {
		return nil, err
	}
	var t [colTrailerLen]byte
	if _, err := io.ReadFull(io.NewSectionReader(h, size-colTrailerLen, colTrailerLen), t[:]); err != nil {
		return nil, err
	}
	total := int64(binary.LittleEndian.Uint64(t[0:]))
	nblocks := int64(binary.LittleEndian.Uint64(t[8:]))
	indexLen := int64(binary.LittleEndian.Uint64(t[16:]))
	var bad error
	switch {
	case string(head[:4]) != string(colMagic[:4]):
		bad = fmt.Errorf("head %x is no columnar magic: a raw file of an earlier release, or a torn head", head)
	case head != colMagic:
		bad = fmt.Errorf("head %x is columnar version %d, of an earlier release; this release reads version 2 only", head, head[4])
	case [colHeadLen]byte(t[colTrailerLen-colHeadLen:]) != colMagic:
		bad = fmt.Errorf("trailer magic %x behind a version-2 head: a torn or damaged footer", t[colTrailerLen-colHeadLen:])
	case total < 0 || nblocks <= 0 || indexLen > size-colHeadLen-colTrailerLen || nblocks > indexLen/colIndexEntryLen:
		bad = fmt.Errorf("trailer of %d elements in %d blocks behind a %d-byte index does not fit %d bytes",
			total, nblocks, indexLen, size)
	}
	if bad == nil {
		dataEnd := size - colTrailerLen - indexLen
		raw := make([]byte, indexLen)
		if _, err := io.ReadFull(io.NewSectionReader(h, dataEnd, indexLen), raw); err != nil {
			return nil, err
		}
		var ix *colIndex
		if ix, bad = parseIndex(raw, t[:], dataEnd); bad == nil {
			return ix, nil
		}
	}
	return nil, fmt.Errorf("columnar version 2: %w", bad)
}

// parseIndex parses the index section raw of a file whose data ends at
// dataEnd, behind trailer t. The index must match the footer checksum; its
// entries carry a block checksum and checkpoints.
func parseIndex(raw, t []byte, dataEnd int64) (*colIndex, error) {
	total := int64(binary.LittleEndian.Uint64(t[0:]))
	nblocks := int64(binary.LittleEndian.Uint64(t[8:]))
	want := binary.LittleEndian.Uint32(t[24:])
	if c := crc32.Update(crc32.Checksum(raw, crcTable), crcTable, t[:24]); c != want {
		return nil, fmt.Errorf("footer checksum %08x, trailer says %08x", c, want)
	}
	ix := &colIndex{
		offsets: make([]int64, nblocks+1),
		starts:  make([]int64, nblocks+1),
		mins:    make([]int64, nblocks),
		maxs:    make([]int64, nblocks),
		crcs:    make([]uint32, nblocks),
		cks:     make([][]int32, nblocks),
		strides: make([]atomic.Pointer[blockStrides], nblocks),
	}
	cks := make([]int32, (int64(len(raw))-nblocks*colIndexEntryLen)/4)
	var elems int64
	p := int64(0)
	for i := range nblocks {
		if int64(len(raw))-p < colIndexEntryLen {
			return nil, fmt.Errorf("index ends inside block %d's entry", i)
		}
		e := raw[p:]
		p += colIndexEntryLen
		off := int64(binary.LittleEndian.Uint64(e[0:]))
		cnt := int64(binary.LittleEndian.Uint32(e[8:]))
		ix.offsets[i], ix.starts[i] = off, elems
		ix.mins[i] = int64(binary.LittleEndian.Uint64(e[12:]))
		ix.maxs[i] = int64(binary.LittleEndian.Uint64(e[20:]))
		ix.crcs[i] = binary.LittleEndian.Uint32(e[28:])
		nck := (cnt + frameStride - 1) / frameStride
		if cnt <= 0 || off < colHeadLen || (i > 0 && off <= ix.offsets[i-1]) || off >= dataEnd ||
			nck > int64(len(cks)) {
			return nil, fmt.Errorf("index entry %d (offset %d, %d elements) is out of place", i, off, cnt)
		}
		ix.cks[i], cks = cks[:nck:nck], cks[nck:]
		for k := range ix.cks[i] {
			ix.cks[i][k] = int32(binary.LittleEndian.Uint32(raw[p:]))
			p += 4
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
		if err := checkCheckpoints(ix.cks[i], ix.frameLen(i)); err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
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

// index returns the block index of the named (device-wide) file in the
// device's format — a columnar file's footer, or the device geometry laid
// over a raw file — consulting and filling the device-wide index cache. The
// handle is only read on a cache miss.
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
	var ix *colIndex
	if m.DefaultBlockFormat() == FormatColumnar {
		ix, err = loadColumnarIndex(h, size)
	} else {
		ix, err = rawIndex(size, d.blockSize)
	}
	if err != nil {
		return nil, err
	}
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	if d.idxCache == nil {
		d.idxCache = make(map[string]*colIndex)
	}
	// A concurrent open that loaded the index first wins, so every reader
	// of the file shares one index and the stride checksums derived in it.
	if first, ok := d.idxCache[key]; ok {
		return first, nil
	}
	d.idxCache[key] = ix
	return ix, nil
}

// dropIndex forgets the cached index of a removed or truncated file.
func (d *device) dropIndex(key string) {
	d.idxMu.Lock()
	delete(d.idxCache, key)
	d.idxMu.Unlock()
}
