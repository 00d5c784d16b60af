package disk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/enc"
)

// colDev returns a columnar-default Manager with 64-byte blocks over a mem
// backend.
func colDev(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManagerOn(NewMemBackend(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetBlockFormat(FormatColumnar); err != nil {
		t.Fatal(err)
	}
	return m
}

func writeFmt(t *testing.T, m *Manager, name string, f BlockFormat, vals []int64) {
	t.Helper()
	w, err := m.CreateFormat(name, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSlice(vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func scanFile(t *testing.T, m *Manager, name string) []int64 {
	t.Helper()
	r, err := m.OpenSequential(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close() //nolint:errcheck
	var got []int64
	for {
		v, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return got
		}
		got = append(got, v)
	}
}

func sortedVals(n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(1000 + i*7)
	}
	return vs
}

// TestColumnarEveryBackend runs the Manager element flow with the columnar
// format over each backend: write, sequential scan, seek, random block
// access, Size — and confirms the compressed file packs several raw blocks'
// worth of elements per columnar block.
func TestColumnarEveryBackend(t *testing.T) {
	for kind, b := range backends(t) {
		t.Run(kind, func(t *testing.T) {
			m, err := NewManagerOn(b, 64) // raw: 8 elements per block
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetBlockFormat(FormatColumnar); err != nil {
				t.Fatal(err)
			}
			vals := sortedVals(100)
			writeFmt(t, m, "c.dat", FormatColumnar, vals)

			if n, err := count(m, "c.dat"); err != nil || n != 100 {
				t.Fatalf("Size = %d, %v", n, err)
			}
			got := scanFile(t, m, "c.dat")
			if len(got) != len(vals) {
				t.Fatalf("scan returned %d elements, want %d", len(got), len(vals))
			}
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("element %d = %d, want %d", i, got[i], vals[i])
				}
			}

			rr, err := m.OpenRandom("c.dat")
			if err != nil {
				t.Fatal(err)
			}
			defer rr.Close() //nolint:errcheck
			// Small deltas: each element encodes in ~1-2 bytes, so a 64-byte
			// block (39-byte frame budget) holds far more than raw's 8.
			if raw := (int64(100) + 7) / 8; rr.Blocks() >= raw {
				t.Errorf("columnar file has %d blocks, raw would have %d", rr.Blocks(), raw)
			}
			var sum int64
			for i := int64(0); i < rr.Blocks(); i++ {
				bv, err := rr.Block(i)
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(bv)) != rr.BlockLen(i) {
					t.Errorf("block %d: %d elements, BlockLen says %d", i, len(bv), rr.BlockLen(i))
				}
				mn, mx, ok := rr.BlockBounds(i)
				if !ok {
					t.Fatalf("block %d: no bounds on columnar file", i)
				}
				if bv[0] != mn || bv[len(bv)-1] != mx {
					t.Errorf("block %d bounds [%d,%d], data [%d,%d]", i, mn, mx, bv[0], bv[len(bv)-1])
				}
				sum += int64(len(bv))
			}
			if sum != 100 {
				t.Errorf("blocks sum to %d elements, want 100", sum)
			}
		})
	}
}

// TestTinyFilesBothFormats is the regression test for element counts derived
// from size/ElementSize arithmetic: zero-length and single-element files
// must report exact counts in both formats.
func TestTinyFilesBothFormats(t *testing.T) {
	for _, f := range []BlockFormat{FormatRaw, FormatColumnar} {
		t.Run(f.String(), func(t *testing.T) {
			m := colDev(t)
			writeFmt(t, m, "empty.dat", f, nil)
			if n, err := count(m, "empty.dat"); err != nil || n != 0 {
				t.Fatalf("empty Size = %d, %v", n, err)
			}
			if got := scanFile(t, m, "empty.dat"); len(got) != 0 {
				t.Fatalf("empty scan = %v", got)
			}
			rr, err := m.OpenRandom("empty.dat")
			if err != nil {
				t.Fatal(err)
			}
			if rr.Count() != 0 || rr.Blocks() != 0 {
				t.Fatalf("empty random reader: count=%d blocks=%d", rr.Count(), rr.Blocks())
			}
			rr.Close() //nolint:errcheck

			writeFmt(t, m, "one.dat", f, []int64{-42})
			if n, err := count(m, "one.dat"); err != nil || n != 1 {
				t.Fatalf("single Size = %d, %v", n, err)
			}
			if got := scanFile(t, m, "one.dat"); len(got) != 1 || got[0] != -42 {
				t.Fatalf("single scan = %v", got)
			}
			rr, err = m.OpenRandom("one.dat")
			if err != nil {
				t.Fatal(err)
			}
			if rr.Count() != 1 || rr.Blocks() != 1 {
				t.Fatalf("single random reader: count=%d blocks=%d", rr.Count(), rr.Blocks())
			}
			bv, err := rr.Block(0)
			if err != nil || len(bv) != 1 || bv[0] != -42 {
				t.Fatalf("single Block(0) = %v, %v", bv, err)
			}
			rr.Close() //nolint:errcheck
		})
	}
}

// TestFormatInterop writes format-0 files, reopens the device with
// compression as the default, and verifies old files still read exactly,
// counts stay right, and mixed-format data merges into one columnar file.
func TestFormatInterop(t *testing.T) {
	b := NewMemBackend()
	m, err := NewManagerOn(b, 64)
	if err != nil {
		t.Fatal(err)
	}
	oldVals := sortedVals(20)
	writeFmt(t, m, "old.dat", FormatRaw, oldVals) // previous-release file

	// "Upgrade": a fresh manager over the same backend, columnar default.
	m2, err := NewManagerOn(b, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.SetBlockFormat(FormatColumnar); err != nil {
		t.Fatal(err)
	}
	if got := scanFile(t, m2, "old.dat"); len(got) != 20 || got[0] != oldVals[0] || got[19] != oldVals[19] {
		t.Fatalf("format-0 file after upgrade: %v", got)
	}
	if n, err := count(m2, "old.dat"); err != nil || n != 20 {
		t.Fatalf("format-0 Size after upgrade = %d, %v", n, err)
	}

	newVals := make([]int64, 30)
	for i := range newVals {
		newVals[i] = int64(1001 + i*7)
	}
	writeFmt(t, m2, "new.dat", FormatColumnar, newVals)

	// Merge the mixed-format pair the way a level merge does: two sequential
	// readers into one writer in the device's default (columnar) format.
	ra, _ := m2.OpenSequential("old.dat")
	rb, _ := m2.OpenSequential("new.dat")
	w, err := m2.Create("merged.dat")
	if err != nil {
		t.Fatal(err)
	}
	va, oka, _ := ra.Next()
	vb, okb, _ := rb.Next()
	for oka || okb {
		if oka && (!okb || va <= vb) {
			if err := w.Append(va); err != nil {
				t.Fatal(err)
			}
			va, oka, _ = ra.Next()
		} else {
			if err := w.Append(vb); err != nil {
				t.Fatal(err)
			}
			vb, okb, _ = rb.Next()
		}
	}
	ra.Close() //nolint:errcheck
	rb.Close() //nolint:errcheck
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rr, err := m2.OpenRandom("merged.dat")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := rr.BlockBounds(0); !ok {
		t.Fatal("merge output is not columnar")
	}
	rr.Close() //nolint:errcheck
	merged := scanFile(t, m2, "merged.dat")
	if len(merged) != 50 {
		t.Fatalf("merged %d elements, want 50", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1] > merged[i] {
			t.Fatalf("merged output unsorted at %d: %d > %d", i, merged[i-1], merged[i])
		}
	}
}

// TestMagicCollision: a format-0 file whose elements equal the columnar
// magic constant must still open as format 0.
func TestMagicCollision(t *testing.T) {
	m := colDev(t)
	magicVal := int64(0x00000001_43515348) // "HSQC\x01\x00\x00\x00" little-endian
	vals := make([]int64, 12)
	for i := range vals {
		vals[i] = magicVal
	}
	writeFmt(t, m, "collide.dat", FormatRaw, vals)
	if n, err := count(m, "collide.dat"); err != nil || n != 12 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	got := scanFile(t, m, "collide.dat")
	if len(got) != 12 || got[0] != magicVal || got[11] != magicVal {
		t.Fatalf("collision file misread: %v", got)
	}
}

// TestTornRawFile: a format-0 file whose size is not a whole number of
// elements — a torn tail — fails loudly through both readers, naming the
// file, instead of reading as a shorter file.
func TestTornRawFile(t *testing.T) {
	for kind, b := range backends(t) {
		t.Run(kind, func(t *testing.T) {
			w, err := b.Create("ns/torn.dat")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(make([]byte, 20*ElementSize+3)); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			root, err := NewManagerOn(b, 64)
			if err != nil {
				t.Fatal(err)
			}
			m, err := root.Namespace("ns")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.OpenSequential("torn.dat"); err == nil || !strings.Contains(err.Error(), "ns/torn.dat") {
				t.Errorf("sequential open of a torn file = %v, want an error naming ns/torn.dat", err)
			}
			if _, err := m.OpenRandom("torn.dat"); err == nil || !strings.Contains(err.Error(), "ns/torn.dat") {
				t.Errorf("random open of a torn file = %v, want an error naming ns/torn.dat", err)
			}
		})
	}
}

// TestRawFallbackTag: random data defeats delta compression, so the writer
// must fall back to plain int64 frames — the file stays readable and no
// bigger than ~raw plus header overhead.
func TestRawFallbackTag(t *testing.T) {
	m := colDev(t)
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = rng.Int63() - rng.Int63()
	}
	writeFmt(t, m, "rand.dat", FormatColumnar, vals)
	got := scanFile(t, m, "rand.dat")
	if len(got) != 64 {
		t.Fatalf("scan returned %d elements", len(got))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("element %d = %d, want %d", i, got[i], vals[i])
		}
	}
}

// TestReadaheadEquivalence: a scan with readahead returns identical data,
// counts the same number of sequential block reads, and issues them in
// fewer backend batches.
func TestReadaheadEquivalence(t *testing.T) {
	for _, f := range []BlockFormat{FormatRaw, FormatColumnar} {
		t.Run(f.String(), func(t *testing.T) {
			m := colDev(t)
			vals := sortedVals(500)
			writeFmt(t, m, "ra.dat", f, vals)

			plain := m.Stats()
			got := scanFile(t, m, "ra.dat")
			plainReads := m.Stats().Sub(plain).SeqReads
			if len(got) != 500 {
				t.Fatalf("plain scan: %d elements", len(got))
			}

			before := m.Stats()
			r, err := m.OpenSequential("ra.dat")
			if err != nil {
				t.Fatal(err)
			}
			r.SetReadahead(4)
			n := 0
			for {
				v, ok, err := r.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if v != vals[n] {
					t.Fatalf("element %d = %d, want %d", n, v, vals[n])
				}
				n++
			}
			r.Close() //nolint:errcheck
			if n != 500 {
				t.Fatalf("readahead scan: %d elements", n)
			}
			if reads := m.Stats().Sub(before).SeqReads; reads != plainReads {
				t.Errorf("readahead scan counted %d seq reads, plain counted %d", reads, plainReads)
			}
		})
	}
}

// TestSkipAccounting: Skip must surface in handle and Manager counters
// without touching reads or hits.
func TestSkipAccounting(t *testing.T) {
	m := colDev(t)
	writeFmt(t, m, "s.dat", FormatColumnar, sortedVals(100))
	rr, err := m.OpenRandom("s.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close() //nolint:errcheck
	rr.Skip(0)
	rr.Skip(1)
	st := m.Stats()
	if rr.Skips() != 2 || st.SkippedBlocks != 2 {
		t.Errorf("skips = %d, stats = %d; want 2, 2", rr.Skips(), st.SkippedBlocks)
	}
	if st.RandReads != 0 || st.CacheHits != 0 {
		t.Errorf("skip counted as read or hit: %+v", st)
	}
}

// TestCacheBytesAccounting: a decoded columnar block is charged by its
// decoded size, so a budget of one raw block cannot retain a block that
// decoded to several raw blocks' worth of elements.
func TestCacheBytesAccounting(t *testing.T) {
	m := colDev(t) // 64-byte blocks
	vals := sortedVals(200)
	writeFmt(t, m, "cb.dat", FormatColumnar, vals)
	m.SetCache(1) // 64 bytes = 8 decoded elements of budget
	rr, err := m.OpenRandom("cb.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close() //nolint:errcheck
	bv, err := rr.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bv) <= 8 {
		t.Fatalf("columnar block decoded to %d elements; want > 8 for this test", len(bv))
	}
	// The block exceeds the entire cache budget, so it must not be cached.
	if got := m.CacheBlocks(); got != 0 {
		t.Errorf("oversize block cached (%d entries)", got)
	}
	if _, err := rr.Block(0); err != nil {
		t.Fatal(err)
	}
	if rr.CacheHits() != 0 {
		t.Errorf("second read hit the cache; oversize entry was retained")
	}

	// With a budget that fits it, the same block caches fine.
	m.SetCache(32)
	if _, err := rr.Block(0); err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Block(0); err != nil {
		t.Fatal(err)
	}
	if rr.CacheHits() != 1 {
		t.Errorf("hits = %d after budgeted re-read, want 1", rr.CacheHits())
	}
}

// TestSequentialDecodeZeroAlloc gates the pooled-buffer promise: once a
// reader's staging has grown, steady-state Next across block boundaries
// performs no allocations, in either format.
func TestSequentialDecodeZeroAlloc(t *testing.T) {
	for _, f := range []BlockFormat{FormatRaw, FormatColumnar} {
		t.Run(f.String(), func(t *testing.T) {
			m := colDev(t)
			writeFmt(t, m, "za.dat", f, sortedVals(100_000))
			r, err := m.OpenSequential("za.dat")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close() //nolint:errcheck
			// Warm the staging buffers across a few refills.
			for i := 0; i < 100; i++ {
				if _, ok, err := r.Next(); !ok || err != nil {
					t.Fatal(ok, err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				for i := 0; i < 64; i++ {
					if _, ok, err := r.Next(); !ok || err != nil {
						t.Fatal(ok, err)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("sequential decode: %v allocs/run, want 0", allocs)
			}
		})
	}
}

// TestBlockReadAllocates gates what a random read may allocate: a columnar
// Frame that reaches the backend allocates the frame — its struct and the
// bytes it keeps — nothing else, as its checkpoints come from the file's
// index; a cache hit allocates nothing; a run decoded into a buffer the
// caller keeps allocates nothing; and a reader that never reaches the backend
// allocates far less than a block.
func TestBlockReadAllocates(t *testing.T) {
	m, err := NewManagerOn(NewMemBackend(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	writeFmt(t, m, "al.dat", FormatColumnar, sortedVals(50_000))
	rr, err := m.OpenRandom("al.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close() //nolint:errcheck
	if rr.Blocks() < 4 {
		t.Fatalf("%d blocks; want several", rr.Blocks())
	}
	next := int64(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := rr.Frame(next % rr.Blocks()); err != nil {
			t.Fatal(err)
		}
		next++
	})
	runtime.ReadMemStats(&after)
	if allocs != 2 {
		t.Errorf("uncached columnar Frame: %v allocs/read, want 2 (the Frame, its bytes)", allocs)
	}
	if perRead := (after.TotalAlloc - before.TotalAlloc) / 101; perRead > uint64(m.BlockSize())+128 {
		t.Errorf("uncached columnar Frame allocated %d bytes a read; the block is %d", perRead, m.BlockSize())
	}

	m.SetCache(64)
	f, err := rr.Frame(1) // fills the cache
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := rr.Frame(1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("cache hit: %v allocs, want 0", allocs)
	}
	win := make([]int64, 200)
	at := rr.BlockStart(1) + 700 // sortedVals(n)[i] is 1000+7i
	if allocs := testing.AllocsPerRun(100, func() {
		if err := f.Decode(win, 700, 1000+7*(at-1)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 || win[0] != 1000+7*at {
		t.Errorf("run decode: %v allocs, first value %d; want 0 and %d", allocs, win[0], 1000+7*at)
	}

	// A reader the cache answers: opening it, a hit, a skip and closing it
	// allocate far less than one block of bytes.
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		hit, err := m.OpenRandom("al.dat")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hit.Frame(1); err != nil {
			t.Fatal(err)
		}
		hit.Skip(2)
		if hit.CacheHits() != 1 || hit.Reads() != 0 {
			t.Fatalf("hits %d reads %d; the reader must be served by the cache", hit.CacheHits(), hit.Reads())
		}
		hit.Close() //nolint:errcheck
	}
	runtime.ReadMemStats(&after)
	if perOpen := (after.TotalAlloc - before.TotalAlloc) / 100; perOpen >= uint64(m.BlockSize())/4 {
		t.Errorf("a reader that never reached the backend allocated %d bytes; a block is %d", perOpen, m.BlockSize())
	}

	// A warm stride read (its block read whole above, so its stride
	// checksums are derived) allocates at most its strides' bytes, never the
	// block: into a fresh frame, the frame and those bytes; into a frame the
	// caller keeps, nothing once its buffer has grown.
	m.SetCache(0)
	var into Frame
	if _, err := rr.ReadRun(2, 700, 900, &into); err != nil {
		t.Fatal(err)
	}
	strides, block := len(into.bytes), int(rr.ix.offsets[3]-rr.ix.offsets[2])
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := rr.ReadRun(2, 700, 900, new(Frame)); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if per := int(after.TotalAlloc-before.TotalAlloc) / 101; allocs > 2 || per > strides+128 || strides >= block/4 {
		t.Errorf("stride read into a fresh frame: %v allocs, %d bytes a read; the strides are %d bytes, the block %d", allocs, per, strides, block)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := rr.ReadRun(2, 700, 900, &into); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("stride read into a kept frame: %v allocs, want 0", allocs)
	}
}

// TestSmallerBlockSizeReadsBothFormats: a file keeps the block geometry it
// was written with. Reopened under a device with smaller blocks — and a cache
// budgeted in those smaller blocks, which the old file's decoded blocks
// overflow — every block of a columnar file and of a raw one still reads
// back, block by block and in a sequential scan.
func TestSmallerBlockSizeReadsBothFormats(t *testing.T) {
	b := NewMemBackend()
	big, err := NewManagerOn(b, 4096)
	if err != nil {
		t.Fatal(err)
	}
	vals := sortedVals(20_000)
	writeFmt(t, big, "col.dat", FormatColumnar, vals)
	writeFmt(t, big, "raw.dat", FormatRaw, vals)

	small, err := NewManagerOn(b, 64)
	if err != nil {
		t.Fatal(err)
	}
	small.SetCache(8)
	for _, name := range []string{"col.dat", "raw.dat"} {
		rr, err := small.OpenRandom(name)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for i := int64(0); i < rr.Blocks(); i++ {
			bv, err := rr.Block(i)
			if err != nil {
				t.Fatalf("%s block %d: %v", name, i, err)
			}
			got = append(got, bv...)
		}
		if !slices.Equal(got, vals) {
			t.Errorf("%s: blocks read one by one do not concatenate to the input", name)
		}
		rr.Close() //nolint:errcheck
		if got := scanFile(t, small, name); !slices.Equal(got, vals) {
			t.Errorf("%s: sequential scan differs from the input", name)
		}
	}
}

// pinnedInputs is the input whose columnar bytes TestColumnarBytesUnchanged
// pins: a sorted run (delta frames) and an unsorted one (the raw-frame
// fallback).
func pinnedInputs() (sorted, unsorted []int64) {
	rng := rand.New(rand.NewSource(1))
	sorted = make([]int64, 30_000)
	v := int64(-1 << 20)
	for i := range sorted {
		v += rng.Int63n(1 << uint(rng.Intn(20))) // deltas of one to three bytes
		sorted[i] = v
	}
	unsorted = make([]int64, 3_000)
	for i := range unsorted {
		unsorted[i] = int64(rng.Uint64())
	}
	return sorted, unsorted
}

// fileBytes returns the whole of the named backend file.
func fileBytes(t testing.TB, b Backend, name string) []byte {
	t.Helper()
	fh, err := b.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close() //nolint:errcheck
	size, err := fh.Size()
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(io.NewSectionReader(fh, 0, size))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// putFile writes data as the named backend file, past every Manager.
func putFile(t testing.TB, b Backend, name string, data []byte) {
	t.Helper()
	w, err := b.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestColumnarBytesUnchanged pins the bytes of columnar version 2: the
// pinned input's files hash to what they hashed to when the version-2 footer
// (checksums and checkpoints) went in. A change to the encoder, the block
// packing, a header or the footer moves it.
func TestColumnarBytesUnchanged(t *testing.T) {
	b := NewMemBackend()
	m, err := NewManagerOn(b, 4096)
	if err != nil {
		t.Fatal(err)
	}
	sorted, unsorted := pinnedInputs()
	writeFmt(t, m, "sorted.dat", FormatColumnar, sorted)
	writeFmt(t, m, "unsorted.dat", FormatColumnar, unsorted)
	h := sha256.New()
	for _, name := range []string{"sorted.dat", "unsorted.dat"} {
		h.Write(fileBytes(t, b, name))
	}
	const want = "0a8c1bc42a289c581e62bbe5d62b8851482322515a3ac3700d0e74db1e2c01ab"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("columnar file bytes changed: sha256 %s, want %s", got, want)
	}
}

// TestAppendSliceMatchesAppend holds the columnar AppendSlice kernel to
// per-value Append: at each block size (the columnar minimum, 4 KB, the
// paper's 100 KB) and on each input kind (sorted deltas, unsorted values
// that take the raw-fallback tag, one value repeated), every chunking —
// random lengths, empty chunks among them, one value at a time, the whole
// input at once — writes the same file bytes and count.
func TestAppendSliceMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sorted := make([]int64, 120_000)
	v := int64(-1 << 30)
	for i := range sorted {
		v += rng.Int63n(1 << uint(rng.Intn(16)))
		sorted[i] = v
	}
	unsorted := make([]int64, 30_000)
	for i := range unsorted {
		unsorted[i] = int64(rng.Uint64())
	}
	dups := slices.Repeat([]int64{-42}, 50_000)
	for _, bs := range []int{colMinBlockSize, 4096, DefaultBlockSize} {
		for _, in := range []struct {
			name string
			vals []int64
		}{{"sorted", sorted}, {"unsorted", unsorted}, {"duplicates", dups}} {
			b := NewMemBackend()
			m, err := NewManagerOn(b, bs)
			if err != nil {
				t.Fatal(err)
			}
			vals := in.vals
			if bs == colMinBlockSize {
				vals = vals[:3000] // a few values a block
			}
			w, err := m.CreateFormat("append.dat", FormatColumnar)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals {
				if err := w.Append(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			want := fileBytes(t, b, "append.dat")
			chunkings := [][]int{{len(vals)}, slices.Repeat([]int{1}, len(vals))}
			for range 4 {
				var cuts []int
				for left := len(vals); left > 0; {
					n := min(left, rng.Intn(2*bs/ElementSize+2))
					cuts = append(cuts, n)
					left -= n
				}
				chunkings = append(chunkings, cuts)
			}
			for c, cuts := range chunkings {
				w, err := m.CreateFormat("slices.dat", FormatColumnar)
				if err != nil {
					t.Fatal(err)
				}
				rest := vals
				for _, n := range cuts {
					if err := w.AppendSlice(rest[:n]); err != nil {
						t.Fatal(err)
					}
					rest = rest[n:]
				}
				if w.Count() != int64(len(vals)) {
					t.Errorf("block size %d, %s, chunking %d: count %d, want %d", bs, in.name, c, w.Count(), len(vals))
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(fileBytes(t, b, "slices.dat"), want) {
					t.Errorf("block size %d, %s, chunking %d (%d chunks): bytes differ from per-value Append", bs, in.name, c, len(cuts))
				}
			}
		}
	}
}

// TestColumnarV1FixtureReads reads the version-1 files of earlier releases —
// testdata/v1_*.dat, the pinned input as version 1 wrote it — through the
// legacy branch: a scan, every block through Frame with runs from every
// checkpoint's neighbourhood, and the block bounds, each read counted in
// Stats.V1Blocks. Version 2 changed the footer only: its blocks are version
// 1's byte for byte, but for the head magic's version.
func TestColumnarV1FixtureReads(t *testing.T) {
	sorted, unsorted := pinnedInputs()
	inputs := map[string][]int64{"v1_sorted.dat": sorted, "v1_unsorted.dat": unsorted}
	h := sha256.New()
	b := NewMemBackend()
	m, err := NewManagerOn(b, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"v1_sorted.dat", "v1_unsorted.dat"} {
		want := inputs[name]
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
		putFile(t, b, name, data)
		before := m.Stats()
		if got := scanFile(t, m, name); !slices.Equal(got, want) {
			t.Fatalf("%s: scan differs from the input", name)
		}
		rr, err := m.OpenRandom(name)
		if err != nil {
			t.Fatal(err)
		}
		if !rr.ix.v1() {
			t.Fatalf("%s: opened as %+v, want columnar version 1", name, rr.ix)
		}
		for i := int64(0); i < rr.Blocks(); i++ {
			f, err := rr.Frame(i)
			if err != nil {
				t.Fatal(err)
			}
			blk := want[rr.BlockStart(i) : rr.BlockStart(i)+int64(f.Len())]
			if mn, mx, ok := rr.BlockBounds(i); !ok || mn != slices.Min(blk) || mx != slices.Max(blk) {
				t.Errorf("%s block %d: bounds [%d,%d] %v, data [%d,%d]", name, i, mn, mx, ok, slices.Min(blk), slices.Max(blk))
			}
			for ck := 0; ck < len(blk); ck += frameStride {
				for _, from := range []int{ck - 1, ck, ck + 1, ck + frameStride/2} {
					if from < 0 || from >= len(blk) {
						continue
					}
					prev := int64(0)
					if from > 0 {
						prev = blk[from-1]
					}
					win := make([]int64, min(200, len(blk)-from))
					if err := f.Decode(win, from, prev); err != nil || !slices.Equal(win, blk[from:from+len(win)]) {
						t.Fatalf("%s block %d: run from %d = %v, %v", name, i, from, win, err)
					}
				}
			}
		}
		dataEnd := rr.ix.offsets[rr.Blocks()]
		rr.Close() //nolint:errcheck
		st := m.Stats().Sub(before)
		if st.V1Blocks == 0 || st.V1Blocks != st.SeqReads+st.RandReads {
			t.Errorf("%s: %d version-1 block reads counted of %d sequential and %d random", name, st.V1Blocks, st.SeqReads, st.RandReads)
		}

		// A flip in the trailer, which no checksum covers, may make the file
		// read as format 0 or fail to open; it must not panic. (The top bit
		// of the block count once overflowed the index length check.)
		for bit := 8 * (len(data) - colTrailerLenV1); bit < 8*len(data); bit++ {
			flipped := slices.Clone(data)
			flipped[bit/8] ^= 1 << (bit % 8)
			putFile(t, b, "flipped.dat", flipped)
			if rr, err := m.OpenRandom("flipped.dat"); err == nil {
				rr.Close() //nolint:errcheck
			}
			m.dev.dropIndex("flipped.dat")
		}

		v2 := "v2_" + name
		writeFmt(t, m, v2, FormatColumnar, want)
		got := fileBytes(t, b, v2)
		rr, err = m.OpenRandom(v2)
		if err != nil {
			t.Fatal(err)
		}
		v2End := rr.ix.offsets[rr.Blocks()]
		rr.Close() //nolint:errcheck
		data[4] = colMagic[4]
		if !slices.Equal(got[:v2End], data[:dataEnd]) {
			t.Errorf("%s: version 2 wrote other blocks than version 1", name)
		}
	}
	// The fixture is the bytes version 1's pin hashed to.
	if got := hex.EncodeToString(h.Sum(nil)); got != "5777be33fec11be05930c3c94944f4093d5afded7645dd14429cd21d29b557ed" {
		t.Errorf("version-1 fixture sha256 %s, not the bytes version 1 wrote", got)
	}
}

// flipFile is a small version-2 file with every part the format has: three
// or more blocks on 512-byte device blocks, a delta frame with two
// checkpoints, and a raw-tagged frame.
func flipFile(t *testing.T) ([]int64, []byte) {
	rng := rand.New(rand.NewSource(3))
	vals := sortedVals(600)
	for range 120 {
		vals = append(vals, rng.Int63()-rng.Int63())
	}
	b := NewMemBackend()
	m, err := NewManagerOn(b, 512)
	if err != nil {
		t.Fatal(err)
	}
	writeFmt(t, m, "flip.dat", FormatColumnar, vals)
	data := fileBytes(t, b, "flip.dat")
	rr, err := m.OpenRandom("flip.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close() //nolint:errcheck
	ix, rawTag, twoCks := rr.ix, false, false
	for i := range ix.blocks() {
		rawTag = rawTag || data[ix.offsets[i]] == colTagRaw
		twoCks = twoCks || (data[ix.offsets[i]] == colTagDelta && len(ix.cks[i]) >= 2)
	}
	if ix.blocks() < 3 || !rawTag || !twoCks {
		t.Fatalf("flip file: %d blocks, raw frame %v, two checkpoints %v; want ≥ 3, true, true", ix.blocks(), rawTag, twoCks)
	}
	return vals, data
}

// readEveryWay reads the named file of data as a store does, on a device of
// its own: open, a sequential scan, and every block through Frame, decoded
// whole and held to its bounds. It returns what the scan read, whether any
// read disagreed with another, and the first error.
func readEveryWay(t testing.TB, data []byte, name string) (scan []int64, disagree bool, err error) {
	b := NewMemBackend()
	putFile(t, b, name, data)
	m, err := NewManagerOn(b, 512)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.OpenSequential(name)
	if err != nil {
		return nil, false, err
	}
	for {
		v, ok, err := r.Next()
		if err != nil {
			r.Close() //nolint:errcheck
			return nil, false, err
		}
		if !ok {
			break
		}
		scan = append(scan, v)
	}
	r.Close() //nolint:errcheck
	rr, err := m.OpenRandom(name)
	if err != nil {
		return nil, false, err
	}
	defer rr.Close() //nolint:errcheck
	var blocks []int64
	for i := range rr.Blocks() {
		bv, err := rr.Block(i)
		if err != nil {
			return nil, false, err
		}
		mn, mx, ok := rr.BlockBounds(i)
		disagree = disagree || !ok || mn != slices.Min(bv) || mx != slices.Max(bv)
		blocks = append(blocks, bv...)
	}
	return scan, disagree || !slices.Equal(scan, blocks), nil
}

// TestEveryBitFlipRefused flips every bit of a small version-2 file in turn
// — both magics, the block headers and frames, the index entries and their
// checkpoints, the trailer — and requires each flip to be refused by an
// error naming the file, at open or at a read: none reads back silently and
// none panics. The block checksums cover headers and frames, the footer's
// covers the index and the trailer, and a damaged magic is refused, not read
// as format 0. A second pass (strideFlips) flips the bits after the first
// touch, under the stride reads.
func TestEveryBitFlipRefused(t *testing.T) {
	vals, data := flipFile(t)
	if scan, disagree, err := readEveryWay(t, data, "flip.dat"); err != nil || disagree || !slices.Equal(scan, vals) {
		t.Fatalf("undamaged file: %v, disagree %v, scan equal %v", err, disagree, slices.Equal(scan, vals))
	}
	silent := 0
	for bit := range 8 * len(data) {
		flipped := slices.Clone(data)
		flipped[bit/8] ^= 1 << (bit % 8)
		_, _, err := readEveryWay(t, flipped, "flip.dat")
		switch {
		case err == nil:
			if silent++; silent <= 5 {
				t.Errorf("flip of bit %d (byte %d of %d) read back without an error", bit, bit/8, len(data))
			}
		case !strings.Contains(err.Error(), "flip.dat"):
			t.Errorf("flip of bit %d: %v, which does not name the file", bit, err)
		}
	}
	if silent > 0 {
		t.Errorf("%d of %d single-bit flips read back without an error", silent, 8*len(data))
	}
	t.Logf("%d-byte file of %d values: %d single-bit flips, %d read back without an error", len(data), len(vals), 8*len(data), silent)
	strideFlips(t, vals, data)
}

// FuzzFrame holds the random read's frame to the sequential scans'
// whole-block decode on any block bytes its index's checksum vouches for, as
// in a file crafted to pass it. With any checkpoints the index accepts, no
// read or run decode panics. Where decodeColBlock accepts the block, Frame
// does too with the checkpoints the writer records (enc.ScanDelta's), and
// the run decoded from any element, given the element before it, is that
// slice of the whole decode — so every window a cursor decodes is.
func FuzzFrame(f *testing.F) {
	block := func(tag byte, count int, frame []byte) []byte {
		b := make([]byte, colHeaderLen, colHeaderLen+len(frame))
		putColHeader(b, tag, count, len(frame), 0, 0)
		return append(b, frame...)
	}
	noCks := []byte{}
	f.Add(block(colTagDelta, 700, enc.AppendDelta(nil, sortedVals(700))), uint16(700), []byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0})
	f.Add(block(colTagDelta, 3, enc.AppendDelta(nil, []int64{-1 << 63, 1<<63 - 1, 0})), uint16(3), noCks)
	f.Add(block(colTagRaw, 3, make([]byte, 3*ElementSize)), uint16(3), noCks)
	f.Add(block(colTagRaw, 3, make([]byte, 2*ElementSize)), uint16(3), noCks)
	f.Add(block(colTagDelta, 2, []byte{0x02, 0x81, 0x01, 0x00}), uint16(2), noCks)
	f.Add(block(colTagDelta, 1, append(slices.Repeat([]byte{0xff}, 9), 0x02)), uint16(1), noCks)
	f.Add(block(2, 1, []byte{0}), uint16(1), noCks)
	f.Add(block(colTagDelta, 300, slices.Repeat([]byte{0x80}, 300)), uint16(300), []byte{0, 0, 0, 0, 0x2b, 1, 0, 0})
	f.Fuzz(func(t *testing.T, buf []byte, count uint16, ckBytes []byte) {
		n := int(count)
		if n == 0 || len(buf) <= colHeaderLen {
			return // a block holds an element and a frame byte, or its index is refused
		}
		ix := &colIndex{
			offsets: []int64{0, int64(len(buf))},
			starts:  []int64{0, int64(n)},
			crcs:    []uint32{crc32.Checksum(buf, crcTable)},
		}
		cks := make([]int32, (n+frameStride-1)/frameStride)
		for k := range cks {
			if 4*k+4 <= len(ckBytes) {
				cks[k] = int32(binary.LittleEndian.Uint32(ckBytes[4*k:]))
			}
		}
		win := make([]int64, n)
		if checkCheckpoints(cks, ix.frameLen(0)) == nil {
			ix.cks = [][]int32{cks}
			if fr, err := ix.frame(buf, 0); err == nil {
				for from := 0; from < n; from++ {
					fr.Decode(win[:n-from], from, 0) //nolint:errcheck // any outcome but a panic
				}
				if fr.Decode(win[:1], n, 0) == nil {
					t.Fatalf("count %d: a run past the block decoded", n)
				}
			}
		}

		want := make([]int64, n)
		if decodeColBlock(want, buf, n) != nil {
			return
		}
		if buf[0] == colTagRaw {
			for k := range cks {
				cks[k] = int32(k * frameStride * ElementSize)
			}
		} else {
			var err error
			if cks, err = enc.ScanDelta(buf[colHeaderLen:], n, frameStride); err != nil {
				t.Fatalf("count %d, block %x: decodeColBlock accepts, ScanDelta refuses: %v", n, buf, err)
			}
		}
		if err := checkCheckpoints(cks, ix.frameLen(0)); err != nil {
			t.Fatalf("count %d, block %x: the writer's checkpoints refused: %v", n, buf, err)
		}
		ix.cks = [][]int32{cks}
		fr, err := ix.frame(buf, 0)
		if err != nil {
			t.Fatalf("count %d, block %x: decodeColBlock accepts, Frame refuses: %v", n, buf, err)
		}
		for from := 0; from < n; from++ {
			prev := int64(0)
			if from > 0 {
				prev = want[from-1]
			}
			got := win[:n-from]
			if err := fr.Decode(got, from, prev); err != nil || !slices.Equal(got, want[from:]) {
				t.Fatalf("count %d, block %x: run from %d = %v, %v, want %v", n, buf, from, got, err, want[from:])
			}
		}
	})
}

// FuzzColumnarFooter crafts version-2 files whose footer passes its checksum
// — any trailer counts and index entries, with each block's checksum
// recomputed over whatever bytes its entry locates — and requires that no
// open, scan, block read or run decode of one panics.
func FuzzColumnarFooter(f *testing.F) {
	b := NewMemBackend()
	m, err := NewManagerOn(b, 512)
	if err != nil {
		f.Fatal(err)
	}
	vals := sortedVals(1200)
	w, err := m.CreateFormat("seed.dat", FormatColumnar)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.AppendSlice(vals); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data := fileBytes(f, b, "seed.dat")
	t := data[len(data)-colTrailerLen:]
	indexLen := int(binary.LittleEndian.Uint64(t[16:]))
	dataEnd := len(data) - colTrailerLen - indexLen
	total, nblocks := binary.LittleEndian.Uint64(t[0:]), binary.LittleEndian.Uint64(t[8:])
	f.Add(data[colHeadLen:dataEnd], data[dataEnd:len(data)-colTrailerLen], total, nblocks)
	f.Add(data[colHeadLen:dataEnd], data[dataEnd:len(data)-colTrailerLen], total, nblocks|1<<62)
	f.Add(data[colHeadLen:dataEnd], data[dataEnd:dataEnd+colIndexEntryLen+4], uint64(300), uint64(1))
	f.Fuzz(func(t *testing.T, blocks, index []byte, total, nblocks uint64) {
		index = slices.Clone(index)
		for p := 0; p+colIndexEntryLen <= len(index); {
			off := int64(binary.LittleEndian.Uint64(index[p:]))
			cnt := int(binary.LittleEndian.Uint32(index[p+8:]))
			next := p + colIndexEntryLen + 4*((cnt+frameStride-1)/frameStride)
			end := int64(colHeadLen + len(blocks))
			if next+8 <= len(index) {
				end = int64(binary.LittleEndian.Uint64(index[next:]))
			}
			if off >= colHeadLen && off < end && end <= int64(colHeadLen+len(blocks)) {
				crc := crc32.Checksum(blocks[off-colHeadLen:end-colHeadLen], crcTable)
				binary.LittleEndian.PutUint32(index[p+28:], crc)
			}
			p = next
		}
		file := append(append(colMagic[:], blocks...), index...)
		file = binary.LittleEndian.AppendUint64(file, total)
		file = binary.LittleEndian.AppendUint64(file, nblocks)
		file = binary.LittleEndian.AppendUint64(file, uint64(len(index)))
		file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(file[colHeadLen+len(blocks):], crcTable))
		file = append(file, colMagic[:]...)
		readEveryWay(t, file, "crafted.dat") //nolint:errcheck // any outcome but a panic
		mb := NewMemBackend()
		putFile(t, mb, "crafted.dat", file)
		m, err := NewManagerOn(mb, 512)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := m.OpenRandom("crafted.dat")
		if err != nil {
			return
		}
		defer rr.Close() //nolint:errcheck
		var v [1]int64
		for i := range rr.Blocks() {
			if fr, err := rr.Frame(i); err == nil {
				for from := range fr.Len() {
					fr.Decode(v[:], from, 0) //nolint:errcheck // any outcome but a panic
				}
			}
		}
	})
}
