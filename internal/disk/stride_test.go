package disk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/enc"
)

// colFile lays blocks (each a header and a frame) out as a version-2 file:
// the head magic, the blocks, one index entry each (bounds 0, the block's
// checksum, its checkpoints) and a trailer whose footer checksum holds.
func colFile(blocks [][]byte, counts []int, cks [][]int32) []byte {
	file := slices.Clone(colMagic[:])
	var index []byte
	total := 0
	for i, b := range blocks {
		index = binary.LittleEndian.AppendUint64(index, uint64(len(file)))
		index = binary.LittleEndian.AppendUint32(index, uint32(counts[i]))
		index = append(index, make([]byte, 16)...)
		index = binary.LittleEndian.AppendUint32(index, crc32.Checksum(b, crcTable))
		for _, c := range cks[i] {
			index = binary.LittleEndian.AppendUint32(index, uint32(c))
		}
		file = append(file, b...)
		total += counts[i]
	}
	t := binary.LittleEndian.AppendUint64(nil, uint64(total))
	t = binary.LittleEndian.AppendUint64(t, uint64(len(blocks)))
	t = binary.LittleEndian.AppendUint64(t, uint64(len(index)))
	t = binary.LittleEndian.AppendUint32(t, crc32.Update(crc32.Checksum(index, crcTable), crcTable, t))
	return append(append(append(file, index...), t...), colMagic[:]...)
}

// writerCheckpoints returns the checkpoints the Writer records for a block
// that decodeColBlock accepts: checkpoint k is where value k·frameStride
// starts in its frame.
func writerCheckpoints(buf []byte, n int) []int32 {
	cks := make([]int32, (n+frameStride-1)/frameStride)
	for k := range cks {
		if buf[0] == colTagRaw {
			cks[k] = int32(k * frameStride * ElementSize)
		} else {
			cks[k] = int32(enc.SkipDelta(buf[colHeaderLen:], k*frameStride))
		}
	}
	return cks
}

// FuzzStrideRead holds the stride read to the sequential scans' whole-block
// decode on any block bytes its checksum vouches for, laid twice into a
// version-2 file (as block 0, behind the head magic, and as block 1). After
// each block's first random read, which reads it whole, a stride read of any
// run [from, to) into a reused frame, and the same frame covered to any
// other run, decode exactly that slice of decodeColBlock — on delta and
// raw-tagged frames, whose last stride may be partial — and fetch only the
// strides the runs need. With any checkpoints the footer accepts, no read
// panics.
func FuzzStrideRead(f *testing.F) {
	block := func(tag byte, count int, frame []byte) []byte {
		b := make([]byte, colHeaderLen, colHeaderLen+len(frame))
		putColHeader(b, tag, count, len(frame), 0, 0)
		return append(b, frame...)
	}
	raw := make([]byte, 300*ElementSize)
	for i := range 300 {
		binary.LittleEndian.PutUint64(raw[i*ElementSize:], uint64(i*i-5000))
	}
	f.Add(block(colTagDelta, 700, enc.AppendDelta(nil, sortedVals(700))), uint16(700), uint16(300), uint16(20), uint16(0), uint16(699), []byte{})
	f.Add(block(colTagDelta, 600, enc.AppendDelta(nil, pinnedSorted(600))), uint16(600), uint16(511), uint16(1), uint16(599), uint16(1), []byte{})
	f.Add(block(colTagRaw, 300, raw), uint16(300), uint16(256), uint16(10), uint16(3), uint16(300), []byte{})
	f.Add(block(colTagDelta, 3, enc.AppendDelta(nil, []int64{-1 << 63, 1<<63 - 1, 0})), uint16(3), uint16(1), uint16(1), uint16(0), uint16(3), []byte{})
	f.Add(block(colTagDelta, 300, slices.Repeat([]byte{0x80}, 300)), uint16(300), uint16(0), uint16(300), uint16(0), uint16(0), []byte{0, 0, 0, 0, 0x2b, 1, 0, 0})
	f.Fuzz(func(t *testing.T, buf []byte, count, from, to, from2, to2 uint16, ckBytes []byte) {
		n := int(count)
		if n == 0 || len(buf) <= colHeaderLen {
			return // a block holds an element and a frame byte, or its index is refused
		}
		want := make([]int64, n)
		valid := decodeColBlock(want, buf, n) == nil
		cks := make([]int32, (n+frameStride-1)/frameStride)
		if valid {
			cks = writerCheckpoints(buf, n)
		} else {
			for k := range cks {
				if 4*k+4 <= len(ckBytes) {
					cks[k] = int32(binary.LittleEndian.Uint32(ckBytes[4*k:]))
				}
			}
		}
		b := NewMemBackend()
		putFile(t, b, "stride.dat", colFile([][]byte{buf, buf}, []int{n, n}, [][]int32{cks, cks}))
		rr, err := fmtDev(t, b, DefaultBlockSize, FormatColumnar).OpenRandom("stride.dat")
		if err != nil {
			if valid {
				t.Fatalf("count %d, block %x: the writer's file refused: %v", n, buf, err)
			}
			return
		}
		defer rr.Close() //nolint:errcheck
		lo := int(from) % n
		hi := lo + 1 + int(to)%(n-lo)
		lo2 := int(from2) % n
		hi2 := lo2 + 1 + int(to2)%(n-lo2)
		got := make([]int64, n)
		var into Frame
		for idx := range int64(2) {
			if _, err := rr.Frame(idx); err != nil {
				if valid {
					t.Fatalf("count %d, block %x: first read of block %d: %v", n, buf, idx, err)
				}
				continue
			}
			fr, err := rr.ReadRun(idx, lo, hi, &into)
			if err != nil || fr != &into {
				t.Fatalf("count %d: stride read of block %d, [%d,%d): frame %p (into %p), %v", n, idx, lo, hi, fr, &into, err)
			}
			if k0, k1 := lo/frameStride, (hi+frameStride-1)/frameStride; fr.lo != k0*frameStride || fr.hi != min(k1*frameStride, n) {
				t.Fatalf("count %d: run [%d,%d) fetched elements [%d,%d)", n, lo, hi, fr.lo, fr.hi)
			}
			check := func(a, z int) {
				prev := int64(0)
				if a > 0 {
					prev = want[a-1]
				}
				err := fr.Decode(got[a:z], a, prev)
				if valid && (err != nil || !slices.Equal(got[a:z], want[a:z])) {
					t.Fatalf("count %d, block %x, block %d: run [%d,%d) = %v, %v; want %v", n, buf, idx, a, z, got[a:z], err, want[a:z])
				}
			}
			check(lo, hi)
			if fr, err = rr.Cover(fr, idx, lo2, hi2); err != nil || fr != &into {
				t.Fatalf("count %d: cover of block %d to [%d,%d): frame %p (into %p), %v", n, idx, lo2, hi2, fr, &into, err)
			}
			check(lo2, hi2)
		}
	})
}

// pinnedSorted is a sorted run whose deltas take one to three bytes.
func pinnedSorted(n int) []int64 {
	sorted, _ := pinnedInputs()
	return sorted[:n]
}

// TestConcurrentFirstReads: readers opened at once on one file, each doing
// what a cursor does — a stride read of a run, then its frame covered to a
// wider one — on a block no read has derived yet, each decode it exactly;
// they share one index, which ends with one set of stride checksums, those
// of the block's bytes. Run under -race.
func TestConcurrentFirstReads(t *testing.T) {
	b := NewMemBackend()
	m, err := NewManagerOn(b, 4096)
	if err != nil {
		t.Fatal(err)
	}
	vals := pinnedSorted(20_000)
	writeFmt(t, m, "first.dat", FormatColumnar, vals)
	// The geometry, from a device of its own, so that m loads the index
	// under the readers' concurrent opens.
	probe, err := fmtDev(t, b, 4096, FormatColumnar).OpenRandom("first.dat")
	if err != nil {
		t.Fatal(err)
	}
	const idx = 1
	base, n := int(probe.BlockStart(idx)), int(probe.BlockLen(idx))
	probe.Close() //nolint:errcheck
	if n < 4*frameStride {
		t.Fatalf("block %d holds %d values; want several strides", idx, n)
	}
	const readers = 8
	ixs := make([]*colIndex, readers)
	errs := make(chan error, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rr, err := m.OpenRandom("first.dat")
			if err != nil {
				errs <- err
				return
			}
			defer rr.Close() //nolint:errcheck
			ixs[g] = rr.ix
			var into Frame
			got := make([]int64, n)
			for rep := range 16 {
				from := (g*389 + rep*1031) % (n - 1)
				to := min(n, from+1+rep*37)
				a, z := max(0, from-500), min(n, to+700)
				fr, err := rr.ReadRun(idx, from, to, &into)
				if err == nil {
					fr, err = rr.Cover(fr, idx, a, z)
				}
				if err == nil {
					err = fr.Decode(got[a:z], a, vals[base+a-1])
				}
				if err == nil && !slices.Equal(got[a:z], vals[base+a:base+z]) {
					err = fmt.Errorf("reader %d decoded a different run [%d,%d)", g, a, z)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ix := ixs[0]
	for _, other := range ixs {
		if other != ix {
			t.Fatal("readers of one file hold different indexes")
		}
	}
	s := ix.derived(idx)
	if s == nil {
		t.Fatal("no stride checksums derived")
	}
	frame := fileBytes(t, b, "first.dat")[ix.offsets[idx]+colHeaderLen : ix.offsets[idx+1]]
	for k := range s.crcs {
		if c := crc32.Checksum(frame[ix.strideOff(idx, s, k):ix.strideOff(idx, s, k+1)], crcTable); c != s.crcs[k] {
			t.Errorf("stride %d: derived checksum %08x, the bytes' %08x", k, s.crcs[k], c)
		}
	}
	if len(s.crcs) != (n+frameStride-1)/frameStride || s.raw {
		t.Errorf("%d stride checksums (raw %v) for %d values", len(s.crcs), s.raw, n)
	}
}

// TestStrideReadCounts: a stride read is one random read of the strides'
// bytes, not the block's; covering the whole block is free in RandReads and
// counted as one stride read; with a cache
// installed, a stride read's frame is kept, charged for the strides it
// holds, answers the runs it holds as hits and is never written by a cover.
func TestStrideReadCounts(t *testing.T) {
	m, err := NewManagerOn(NewMemBackend(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	vals := pinnedSorted(20_000)
	writeFmt(t, m, "cnt.dat", FormatColumnar, vals)
	rr, err := m.OpenRandom("cnt.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close() //nolint:errcheck
	const idx = 1
	n := int(rr.BlockLen(idx))
	block := int(rr.ix.offsets[idx+1] - rr.ix.offsets[idx])
	var into Frame
	whole, err := rr.ReadRun(idx, 600, 700, &into)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if lo, hi := whole.span(); st.RandReads != 1 || st.BytesRead != uint64(block) || whole == &into || lo != 0 || hi != n {
		t.Fatalf("first read: %v, %d bytes of a %d-byte block, holds [%d,%d); want one whole read", st, st.BytesRead, block, lo, hi)
	}
	fr, err := rr.ReadRun(idx, 600, 700, &into)
	if err != nil || fr != &into {
		t.Fatal(fr, err)
	}
	d := m.Stats().Sub(st)
	if want := uint64(len(into.bytes)); d.RandReads != 1 || d.BytesRead != want || into.lo != 512 || into.hi != 768 {
		t.Fatalf("stride read: %v, %d bytes, holds [%d,%d); want one read of [512,768)'s %d bytes", d, d.BytesRead, into.lo, into.hi, want)
	}
	st = m.Stats()
	if fr, err = rr.Cover(fr, idx, 0, n); err != nil || fr != &into || fr.lo != 0 || fr.hi != n {
		t.Fatal(fr, err)
	}
	d = m.Stats().Sub(st)
	if d.RandReads != 0 || d.StrideReads != 1 || int(d.BytesRead) != block-colHeaderLen {
		t.Errorf("cover to the whole block: %v, %d bytes; want no random read and one stride read of the %d-byte frame", d, d.BytesRead, block-colHeaderLen)
	}
	got := make([]int64, n)
	base := int(rr.BlockStart(idx))
	if err := fr.Decode(got, 0, 0); err != nil || !slices.Equal(got, vals[base:base+n]) {
		t.Fatalf("covered block: %v", err)
	}

	m.SetCache(64)
	st = m.Stats()
	kept, err := rr.ReadRun(idx, 600, 700, &into)
	if err != nil || kept == &into || !kept.kept {
		t.Fatalf("stride read under a cache: frame %p (into %p), kept %v, %v", kept, &into, kept != nil && kept.kept, err)
	}
	if c := cost(kept); c != 256*ElementSize {
		t.Errorf("a one-stride frame costs %d, want %d", c, 256*ElementSize)
	}
	if hit, err := rr.ReadRun(idx, 520, 760, &into); err != nil || hit != kept {
		t.Errorf("run inside the kept strides: %p, %v; want the kept frame", hit, err)
	}
	wider, err := rr.Cover(kept, idx, 0, 700)
	if err != nil || wider == kept || kept.lo != 512 || kept.hi != 768 || wider.lo != 0 || wider.hi != 768 {
		t.Fatalf("cover of a kept frame: %p (kept %p), %v; kept holds [%d,%d), the cover [%d,%d)", wider, kept, err, kept.lo, kept.hi, wider.lo, wider.hi)
	}
	if err := wider.Decode(got[:700], 0, 0); err != nil || !slices.Equal(got[:700], vals[base:base+700]) {
		t.Errorf("covered kept frame: %v", err)
	}
	if d := m.Stats().Sub(st); d.RandReads != 1 || d.CacheHits != 1 || d.CacheMisses != 1 || d.StrideReads != 1 {
		t.Errorf("under a cache: %v; want one read, one hit, one miss, one stride read", d)
	}
}

// strideFlips is TestEveryBitFlipRefused's pass after the first touch: each
// block of the file read whole once, so later reads fetch strides, it flips
// every bit of the backend's bytes in turn. Each stride read alone, and each
// block's first stride covered out to the whole block, must refuse a flip
// inside a stride it fetches, naming the file, and read back every stride it
// fetches otherwise. A flip outside every stride — a header, the footer —
// is never read again, so every read reads back.
func strideFlips(t *testing.T, vals []int64, data []byte) {
	b := NewMemBackend()
	putFile(t, b, "flip.dat", data)
	rr, err := fmtDev(t, b, 512, FormatColumnar).OpenRandom("flip.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close() //nolint:errcheck
	ix := rr.ix
	for i := range ix.blocks() {
		if _, err := rr.Frame(i); err != nil {
			t.Fatal(err)
		}
	}
	// inside reports whether file byte p lies in block i's frame bytes
	// [a, b) (frame offsets).
	inside := func(p int, i int64, a, b int) bool {
		at := int(ix.offsets[i]) + colHeaderLen
		return p >= at+a && p < at+b
	}
	mf, _ := b.lookup("flip.dat")
	got := make([]int64, len(vals))
	var into Frame
	read := func(p int, i int64, from, to int, covered bool, cover bool) bool {
		fr, err := rr.ReadRun(i, from, to, &into)
		if err == nil && cover {
			fr, err = rr.Cover(fr, i, 0, int(ix.blockCount(i)))
			from, to = 0, int(ix.blockCount(i))
		}
		base := int(ix.starts[i])
		switch {
		case covered && err == nil:
			t.Errorf("flip at byte %d, inside block %d's strides for [%d,%d), read back", p, i, from, to)
		case covered && !strings.Contains(err.Error(), "flip.dat"):
			t.Errorf("flip at byte %d: %v, which does not name the file", p, err)
		case covered:
			return true
		case err != nil:
			t.Errorf("flip at byte %d, outside block %d's strides for [%d,%d): %v", p, i, from, to, err)
		default:
			prev := int64(0)
			if from > 0 {
				prev = vals[base+from-1]
			}
			if err := fr.Decode(got[:to-from], from, prev); err != nil || !slices.Equal(got[:to-from], vals[base+from:base+to]) {
				t.Errorf("flip at byte %d, outside block %d's strides for [%d,%d): decoded %v", p, i, from, to, err)
			}
		}
		return false
	}
	refused := 0
	for bit := range 8 * len(data) {
		p := bit / 8
		mf.data[p] ^= 1 << (bit % 8)
		for i := range ix.blocks() {
			s, n := ix.derived(i), int(ix.blockCount(i))
			for k := range s.crcs {
				if read(p, i, k*frameStride, min(n, (k+1)*frameStride), inside(p, i, ix.strideOff(i, s, k), ix.strideOff(i, s, k+1)), false) {
					refused++
				}
			}
			read(p, i, 0, 1, inside(p, i, 0, ix.frameLen(i)), true)
		}
		mf.data[p] ^= 1 << (bit % 8)
		if t.Failed() {
			t.Fatalf("stopped at bit %d", bit)
		}
	}
	if refused == 0 {
		t.Error("no stride read refused a flip")
	}
	t.Logf("after the first touch: %d refusals by single-stride reads over %d single-bit flips", refused, 8*len(data))
}
