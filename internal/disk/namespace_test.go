package disk

import (
	"path/filepath"
	"testing"
)

// writeFile writes vals to name through m, failing the test on error.
func writeFile(t *testing.T, m *Manager, name string, vals []int64) {
	t.Helper()
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

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestValidNamespace(t *testing.T) {
	for _, ok := range []string{"a", "api.latency", "streams/api.latency", "A-1_b.c"} {
		if err := ValidNamespace(ok); err != nil {
			t.Errorf("ValidNamespace(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "/", "a/", "/a", "a//b", ".", "..", "a/../b", "a b", "a\x00"} {
		if err := ValidNamespace(bad); err == nil {
			t.Errorf("ValidNamespace(%q) = nil, want error", bad)
		}
	}
}

func TestNamespaceIsolationAndPrefix(t *testing.T) {
	for _, kind := range []string{"file", "mem"} {
		t.Run(kind, func(t *testing.T) {
			b, err := OpenBackend(kind, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			root, err := NewManagerOn(b, 64)
			if err != nil {
				t.Fatal(err)
			}
			a, err := root.Namespace("streams/a")
			if err != nil {
				t.Fatal(err)
			}
			c, err := root.Namespace("streams/c")
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, a, "x.dat", seq(10))
			writeFile(t, c, "x.dat", seq(20))

			// Same relative name, independent files.
			na, err := count(a, "x.dat")
			if err != nil {
				t.Fatal(err)
			}
			nc, err := count(c, "x.dat")
			if err != nil {
				t.Fatal(err)
			}
			if na != 10 || nc != 20 {
				t.Errorf("sizes = %d, %d; want 10, 20", na, nc)
			}
			// The root view sees the prefixed names.
			if !root.Exists("streams/a/x.dat") || !root.Exists("streams/c/x.dat") {
				t.Error("prefixed names not visible from root view")
			}
			if root.Exists("x.dat") {
				t.Error("unprefixed name leaked to root namespace")
			}
			// Metadata is prefixed too.
			if err := a.WriteMeta("M.json", []byte("{}")); err != nil {
				t.Fatal(err)
			}
			if got, err := root.ReadMeta("streams/a/M.json"); err != nil || string(got) != "{}" {
				t.Errorf("root ReadMeta = %q, %v", got, err)
			}
			if _, err := c.ReadMeta("M.json"); err == nil {
				t.Error("metadata leaked across namespaces")
			}
			// Remove through the view.
			if err := a.Remove("x.dat"); err != nil {
				t.Fatal(err)
			}
			if root.Exists("streams/a/x.dat") {
				t.Error("remove through view did not delete the prefixed file")
			}
			if !c.Exists("x.dat") {
				t.Error("remove in one namespace deleted another's file")
			}
		})
	}
}

func TestNamespaceFileLayout(t *testing.T) {
	dir := t.TempDir()
	root, err := NewManager(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := root.Namespace("streams/api.latency")
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, ns, "part-000001.dat", seq(4))
	want := filepath.Join(dir, "streams", "api.latency", "part-000001.dat")
	if _, err := filepath.Glob(want); err != nil {
		t.Fatal(err)
	}
	if !root.Exists("streams/api.latency/part-000001.dat") {
		t.Fatalf("expected %s on disk", want)
	}
}

// TestNamespaceStatsSumToAggregate drives I/O through two views and checks
// that per-view counters are exact and sum to the root (device) aggregate.
func TestNamespaceStatsSumToAggregate(t *testing.T) {
	root, err := NewManagerOn(NewMemBackend(), 64) // 8 elements per block
	if err != nil {
		t.Fatal(err)
	}
	root.SetCache(4)
	a, err := root.Namespace("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := root.Namespace("b")
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, a, "x.dat", seq(32)) // 4 blocks
	writeFile(t, b, "x.dat", seq(16)) // 2 blocks

	ra, err := a.OpenRandom("x.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	rb, err := b.OpenRandom("x.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	// Repeats hit the shared cache. Reads are grouped per block (not
	// interleaved) so the expectation holds even if both blocks hash to the
	// same single-entry cache shard.
	for i := 0; i < 3; i++ {
		if _, err := ra.Block(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := rb.Block(1); err != nil {
			t.Fatal(err)
		}
	}

	sa, sb, agg := a.Stats(), b.Stats(), root.Stats()
	if sa.SeqWrites != 4 || sb.SeqWrites != 2 {
		t.Errorf("per-view seq writes = %d, %d; want 4, 2", sa.SeqWrites, sb.SeqWrites)
	}
	if sa.RandReads != 1 || sa.CacheHits != 2 || sb.RandReads != 1 || sb.CacheHits != 2 {
		t.Errorf("per-view rand/hits = (%d,%d) (%d,%d); want (1,2) (1,2)",
			sa.RandReads, sa.CacheHits, sb.RandReads, sb.CacheHits)
	}
	sum := sa.Add(sb)
	if sum != agg {
		t.Errorf("view sum %+v != aggregate %+v", sum, agg)
	}
}

// TestNamespaceSharedCache verifies all views draw on one cache budget: a
// single-block cache means a second namespace's read evicts the first's.
func TestNamespaceSharedCache(t *testing.T) {
	root, err := NewManagerOn(NewMemBackend(), 64)
	if err != nil {
		t.Fatal(err)
	}
	root.SetCache(1)
	a, err := root.Namespace("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := root.Namespace("b")
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, a, "x.dat", seq(8))
	writeFile(t, b, "x.dat", seq(8))
	ra, _ := a.OpenRandom("x.dat")
	defer ra.Close()
	rb, _ := b.OpenRandom("x.dat")
	defer rb.Close()
	if _, err := ra.Block(0); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Block(0); err != nil { // evicts a's block
		t.Fatal(err)
	}
	if _, err := ra.Block(0); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().RandReads; got != 2 {
		t.Errorf("a rand reads = %d, want 2 (shared budget eviction)", got)
	}
	if root.CacheBlocks() != 1 {
		t.Errorf("cache holds %d blocks, want 1", root.CacheBlocks())
	}
}

func TestNamespaceComposes(t *testing.T) {
	root, err := NewManagerOn(NewMemBackend(), 64)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := root.Namespace("streams")
	if err != nil {
		t.Fatal(err)
	}
	inner, err := outer.Namespace("x")
	if err != nil {
		t.Fatal(err)
	}
	if key := inner.key("f.dat"); key != "streams/x/f.dat" {
		t.Fatalf("key = %q", key)
	}
	writeFile(t, inner, "f.dat", seq(1))
	if !root.Exists("streams/x/f.dat") {
		t.Error("nested namespace name not visible from root")
	}
}
