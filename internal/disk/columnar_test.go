package disk

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
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
// Block that reaches the backend allocates the decoded slice it returns and
// nothing else — its staging is the pool's — and a reader that never reaches
// the backend takes no staging at all.
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
	// Touch every block once so the staging has met the largest.
	for b := int64(0); b < rr.Blocks(); b++ {
		if _, err := rr.Block(b); err != nil {
			t.Fatal(err)
		}
	}
	next := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := rr.Block(next % rr.Blocks()); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 1 {
		t.Errorf("uncached columnar Block: %v allocs/read, want 1 (the decoded slice)", allocs)
	}

	// A reader the cache answers takes no staging: opening it, a hit, a skip
	// and closing it allocate far less than one block of bytes.
	m.SetCache(64)
	if _, err := rr.Block(0); err != nil { // fills the cache
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		hit, err := m.OpenRandom("al.dat")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hit.Block(0); err != nil {
			t.Fatal(err)
		}
		hit.Skip(1)
		if hit.CacheHits() != 1 || hit.Reads() != 0 {
			t.Fatalf("hits %d reads %d; the reader must be served by the cache", hit.CacheHits(), hit.Reads())
		}
		hit.Close() //nolint:errcheck
	}
	runtime.ReadMemStats(&after)
	if perOpen := (after.TotalAlloc - before.TotalAlloc) / 100; perOpen >= uint64(m.BlockSize())/4 {
		t.Errorf("a reader that never reached the backend allocated %d bytes; a block is %d", perOpen, m.BlockSize())
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

// TestColumnarBytesUnchanged pins the bytes of format 1: a sorted file (delta
// frames) and an unsorted one (the raw-frame fallback) written from a fixed
// input hash to what they hashed to before the decode kernel went in. A
// change to the encoder, the block packing, a header or the footer moves it.
func TestColumnarBytesUnchanged(t *testing.T) {
	b := NewMemBackend()
	m, err := NewManagerOn(b, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sorted := make([]int64, 30_000)
	v := int64(-1 << 20)
	for i := range sorted {
		v += rng.Int63n(1 << uint(rng.Intn(20))) // deltas of one to three bytes
		sorted[i] = v
	}
	unsorted := make([]int64, 3_000)
	for i := range unsorted {
		unsorted[i] = int64(rng.Uint64())
	}
	writeFmt(t, m, "sorted.dat", FormatColumnar, sorted)
	writeFmt(t, m, "unsorted.dat", FormatColumnar, unsorted)
	h := sha256.New()
	for _, name := range []string{"sorted.dat", "unsorted.dat"} {
		fh, err := b.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, err := fh.Size()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(h, io.NewSectionReader(fh, 0, size)); err != nil {
			t.Fatal(err)
		}
		fh.Close() //nolint:errcheck
	}
	const want = "5777be33fec11be05930c3c94944f4093d5afded7645dd14429cd21d29b557ed"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("columnar file bytes changed: sha256 %s, want %s", got, want)
	}
}
