package disk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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

// fmtDev returns a device of blockSize-byte blocks over b that writes and
// reads format f.
func fmtDev(t testing.TB, b Backend, blockSize int, f BlockFormat) *Manager {
	t.Helper()
	m, err := NewManagerOn(b, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetBlockFormat(f); err != nil {
		t.Fatal(err)
	}
	return m
}

// colDev returns a columnar Manager with 64-byte blocks over a mem backend.
func colDev(t *testing.T) *Manager { return fmtDev(t, NewMemBackend(), 64, FormatColumnar) }

// writeFmt writes vals as name through m, which it sets to format f first: a
// device writes and reads the one format it is set to.
func writeFmt(t *testing.T, m *Manager, name string, f BlockFormat, vals []int64) {
	t.Helper()
	if err := m.SetBlockFormat(f); err != nil {
		t.Fatal(err)
	}
	w, err := m.Create(name)
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
// must report exact counts in both formats, each on a device of its format.
func TestTinyFilesBothFormats(t *testing.T) {
	for _, f := range []BlockFormat{FormatRaw, FormatColumnar} {
		t.Run(f.String(), func(t *testing.T) {
			m := fmtDev(t, NewMemBackend(), 64, f)
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

// magicValues are the int64s whose little-endian bytes are the columnar
// head magic of version 1 and of version 2.
var magicValues = []int64{
	int64(binary.LittleEndian.Uint64([]byte{'H', 'S', 'Q', 'C', 1, 0, 0, 0})), // 5 424 370 504
	int64(binary.LittleEndian.Uint64(colMagic[:])),                            // 9 719 337 800
}

// TestRawDeviceReadsMagicValues: a raw device lays its geometry over every
// file and reads neither head nor tail, so a raw file that starts or ends
// with either magic value — or both — reads back exactly, through both
// readers.
func TestRawDeviceReadsMagicValues(t *testing.T) {
	for _, magic := range magicValues {
		for _, at := range []string{"first", "last", "both"} {
			m := fmtDev(t, NewMemBackend(), 64, FormatRaw)
			vals := sortedVals(20) // three 8-value blocks
			if at != "last" {
				vals[0] = magic
			}
			if at != "first" {
				vals[len(vals)-1] = magic
			}
			writeFile(t, m, "magic.dat", vals)
			if got := scanFile(t, m, "magic.dat"); !slices.Equal(got, vals) {
				t.Errorf("magic %d %s: scan %v, want %v", magic, at, got, vals)
			}
			rr, err := m.OpenRandom("magic.dat")
			if err != nil {
				t.Fatalf("magic %d %s: %v", magic, at, err)
			}
			var got []int64
			for i := range rr.Blocks() {
				bv, err := rr.Block(i)
				if err != nil {
					t.Fatalf("magic %d %s: block %d: %v", magic, at, i, err)
				}
				got = append(got, bv...)
			}
			rr.Close() //nolint:errcheck
			if !slices.Equal(got, vals) {
				t.Errorf("magic %d %s: blocks %v, want %v", magic, at, got, vals)
			}
		}
	}
}

// TestColumnarDeviceRefusesForeignFiles: a columnar device reads columnar
// version 2 and nothing else. A zero-byte file, the Writer's empty file,
// opens with no elements; every other file that is not version 2 — too short
// for a head, one raw element, a raw file of several blocks, a version-1
// file of an earlier release — is refused at open by both readers, with an
// error that names the file and says what was found.
func TestColumnarDeviceRefusesForeignFiles(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1_sorted.dat"))
	if err != nil {
		t.Fatal(err)
	}
	raw := func(vals []int64) []byte {
		buf := make([]byte, len(vals)*ElementSize)
		encodeInto(buf, vals)
		return buf
	}
	type foreign struct {
		name  string
		data  []byte
		found string // what the error says the file is
	}
	var cases []foreign
	for n := 1; n <= 7; n++ {
		cases = append(cases, foreign{fmt.Sprintf("%d bytes", n), []byte{1, 2, 3, 4, 5, 6, 7}[:n], "too short"})
	}
	cases = append(cases,
		foreign{"8 raw bytes", raw([]int64{0x0807060504030201}), "too short"},
		foreign{"a raw file of several blocks", raw(sortedVals(100)), "no columnar magic"},
		foreign{"a version-1 file", v1, "version 1"},
	)
	open := map[string]func(m *Manager, name string) (int64, error){
		"sequential": func(m *Manager, name string) (int64, error) {
			r, err := m.OpenSequential(name)
			if err != nil {
				return 0, err
			}
			defer r.Close() //nolint:errcheck
			return r.Count(), nil
		},
		"random": func(m *Manager, name string) (int64, error) {
			r, err := m.OpenRandom(name)
			if err != nil {
				return 0, err
			}
			defer r.Close() //nolint:errcheck
			return r.Count(), nil
		},
	}
	for reader, openFile := range open {
		t.Run(reader, func(t *testing.T) {
			b := NewMemBackend()
			m := fmtDev(t, b, 4096, FormatColumnar)
			putFile(t, b, "empty.dat", nil)
			if n, err := openFile(m, "empty.dat"); err != nil || n != 0 {
				t.Errorf("zero-byte file: %d elements, %v; want 0 and no error", n, err)
			}
			for _, c := range cases {
				name := "foreign-" + strings.ReplaceAll(c.name, " ", "-") + ".dat"
				putFile(t, b, name, c.data)
				n, err := openFile(m, name)
				switch {
				case err == nil:
					t.Errorf("%s: opened with %d elements; want a refusal", c.name, n)
				case !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), c.found):
					t.Errorf("%s: %v; want an error naming %s and saying %q", c.name, err, name, c.found)
				}
			}
		})
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
			m := fmtDev(t, NewMemBackend(), 64, f)
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
			m := fmtDev(t, NewMemBackend(), 64, f)
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
// was written with. Reopened under a device of its format with smaller
// blocks — and a cache budgeted in those smaller blocks, which the old file's
// decoded blocks overflow — every block of a columnar file still reads back,
// block by block and in a sequential scan; a raw file, whose geometry is the
// device's, reads back over the smaller blocks.
func TestSmallerBlockSizeReadsBothFormats(t *testing.T) {
	vals := sortedVals(20_000)
	for _, f := range []BlockFormat{FormatRaw, FormatColumnar} {
		b := NewMemBackend()
		writeFile(t, fmtDev(t, b, 4096, f), "old.dat", vals)
		small := fmtDev(t, b, 64, f)
		small.SetCache(8)
		rr, err := small.OpenRandom("old.dat")
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for i := int64(0); i < rr.Blocks(); i++ {
			bv, err := rr.Block(i)
			if err != nil {
				t.Fatalf("%s block %d: %v", f, i, err)
			}
			got = append(got, bv...)
		}
		if !slices.Equal(got, vals) {
			t.Errorf("%s: blocks read one by one do not concatenate to the input", f)
		}
		rr.Close() //nolint:errcheck
		if got := scanFile(t, small, "old.dat"); !slices.Equal(got, vals) {
			t.Errorf("%s: sequential scan differs from the input", f)
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
			m := fmtDev(t, b, bs, FormatColumnar)
			vals := in.vals
			if bs == colMinBlockSize {
				vals = vals[:3000] // a few values a block
			}
			w, err := m.Create("append.dat")
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
				w, err := m.Create("slices.dat")
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
	m := fmtDev(t, b, 512, FormatColumnar)
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
// covers the index and the trailer, and a damaged magic is refused. A second
// pass (strideFlips) flips the bits after the first
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
// does too with the checkpoints the writer records, and
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
		cks = writerCheckpoints(buf, n)
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
	m := fmtDev(f, b, 512, FormatColumnar)
	vals := sortedVals(1200)
	w, err := m.Create("seed.dat")
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
		rr, err := fmtDev(t, mb, 512, FormatColumnar).OpenRandom("crafted.dat")
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
