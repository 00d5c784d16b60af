package disk

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"testing"
)

// backends enumerates every Backend implementation; the conformance suite
// runs each subtest against all of them so the storage seam stays
// interchangeable.
func backends(t *testing.T) map[string]Backend {
	t.Helper()
	fb, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{"file": fb, "mem": NewMemBackend(), "crash": NewCrashBackend()}
}

func TestBackendConformance(t *testing.T) {
	for kind, b := range backends(t) {
		t.Run(kind, func(t *testing.T) { conformance(t, b, kind) })
	}
}

func conformance(t *testing.T, b Backend, kind string) {
	t.Run("create-write-read", func(t *testing.T) {
		w, err := b.Create("a.dat")
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte("hello, blocks")
		if n, err := w.Write(payload); n != len(payload) || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if size, err := b.Size("a.dat"); err != nil || size != int64(len(payload)) {
			t.Fatalf("Size = %d, %v", size, err)
		}
		r, err := b.Open("a.dat")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got := make([]byte, len(payload))
		if n, err := r.ReadAt(got, 0); n != len(payload) || (err != nil && err != io.EOF) {
			t.Fatalf("ReadAt = %d, %v", n, err)
		}
		if string(got) != string(payload) {
			t.Errorf("read %q, want %q", got, payload)
		}
	})

	t.Run("readat-eof", func(t *testing.T) {
		w, _ := b.Create("eof.dat")
		w.Write([]byte("1234")) //nolint:errcheck
		w.Close()               //nolint:errcheck
		r, err := b.Open("eof.dat")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		buf := make([]byte, 8)
		n, err := r.ReadAt(buf, 0)
		if n != 4 || !errors.Is(err, io.EOF) {
			t.Errorf("short ReadAt = %d, %v; want 4, EOF", n, err)
		}
		if n, err := r.ReadAt(buf, 100); n != 0 || !errors.Is(err, io.EOF) {
			t.Errorf("past-EOF ReadAt = %d, %v; want 0, EOF", n, err)
		}
	})

	t.Run("create-truncates", func(t *testing.T) {
		w, _ := b.Create("t.dat")
		w.Write([]byte("long old content")) //nolint:errcheck
		w.Close()                           //nolint:errcheck
		w2, _ := b.Create("t.dat")
		w2.Write([]byte("new")) //nolint:errcheck
		w2.Close()              //nolint:errcheck
		if size, err := b.Size("t.dat"); err != nil || size != 3 {
			t.Errorf("Size after truncate = %d, %v", size, err)
		}
	})

	t.Run("exists-remove", func(t *testing.T) {
		w, _ := b.Create("r.dat")
		w.Close() //nolint:errcheck
		if !b.Exists("r.dat") {
			t.Error("Exists = false after Create")
		}
		if err := b.Remove("r.dat"); err != nil {
			t.Fatal(err)
		}
		if b.Exists("r.dat") {
			t.Error("Exists = true after Remove")
		}
		if err := b.Remove("r.dat"); err == nil {
			t.Error("Remove of missing file: want error")
		}
		if _, err := b.Open("r.dat"); err == nil {
			t.Error("Open of missing file: want error")
		}
		if _, err := b.Size("r.dat"); err == nil {
			t.Error("Size of missing file: want error")
		}
	})

	t.Run("abort-discards", func(t *testing.T) {
		w, _ := b.Create("ab.dat")
		w.Write([]byte("junk")) //nolint:errcheck
		w.Abort()
		if b.Exists("ab.dat") {
			t.Error("Exists = true after Abort")
		}
	})

	t.Run("meta-roundtrip", func(t *testing.T) {
		if err := b.WriteMeta("MANIFEST.json", []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteMeta("MANIFEST.json", []byte(`{"v":2}`)); err != nil {
			t.Fatal(err)
		}
		data, err := b.ReadMeta("MANIFEST.json")
		if err != nil || string(data) != `{"v":2}` {
			t.Errorf("ReadMeta = %q, %v", data, err)
		}
		if _, err := b.ReadMeta("missing.json"); err == nil {
			t.Error("ReadMeta of missing file: want error")
		}
	})

	t.Run("sync-and-list", func(t *testing.T) {
		w, _ := b.Create("ls/one.dat")
		w.Write([]byte("a")) //nolint:errcheck
		w.Close()            //nolint:errcheck
		w, _ = b.Create("ls/two.dat")
		w.Write([]byte("b")) //nolint:errcheck
		w.Close()            //nolint:errcheck
		if err := b.WriteMeta("ls/META.json", []byte("{}")); err != nil {
			t.Fatal(err)
		}
		// Sync after a mix of data writes, a meta commit and a remove.
		if err := b.Remove("ls/two.dat"); err != nil {
			t.Fatal(err)
		}
		if err := b.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		names, err := b.List("ls/")
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"ls/META.json", "ls/one.dat"}
		if len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
			t.Errorf("List(ls/) = %v, want %v", names, want)
		}
		if all, err := b.List(""); err != nil || len(all) < 2 {
			t.Errorf("List(\"\") = %v, %v", all, err)
		}
	})

	// Each namespace lists alone: a prefix names its own files, nested ones
	// included, and never a sibling's, even one its name is a prefix of.
	t.Run("list-namespaces", func(t *testing.T) {
		for _, name := range []string{"ns/a/x.dat", "ns/a/sub/y.dat", "ns/ab/z.dat", "ns/b/w.dat", "ns/a.dat"} {
			w, err := b.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			w.Write([]byte("v")) //nolint:errcheck
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.WriteMeta("ns/b/META.json", []byte("{}")); err != nil {
			t.Fatal(err)
		}
		for prefix, want := range map[string][]string{
			"ns/a/":       {"ns/a/sub/y.dat", "ns/a/x.dat"},
			"ns/ab/":      {"ns/ab/z.dat"},
			"ns/b/":       {"ns/b/META.json", "ns/b/w.dat"},
			"ns/a":        {"ns/a.dat", "ns/a/sub/y.dat", "ns/a/x.dat", "ns/ab/z.dat"},
			"ns/a/sub/y":  {"ns/a/sub/y.dat"},
			"ns/":         {"ns/a.dat", "ns/a/sub/y.dat", "ns/a/x.dat", "ns/ab/z.dat", "ns/b/META.json", "ns/b/w.dat"},
			"ns/missing/": nil,
			"nope/":       nil,
		} {
			got, err := b.List(prefix)
			if err != nil || !slices.Equal(got, want) {
				t.Errorf("List(%q) = %v, %v; want %v", prefix, got, err, want)
			}
		}
	})

	t.Run("independent-handles", func(t *testing.T) {
		w, _ := b.Create("h.dat")
		w.Write([]byte("abcdefgh")) //nolint:errcheck
		w.Close()                   //nolint:errcheck
		r1, err := b.Open("h.dat")
		if err != nil {
			t.Fatal(err)
		}
		r2, err := b.Open("h.dat")
		if err != nil {
			t.Fatal(err)
		}
		buf1, buf2 := make([]byte, 4), make([]byte, 4)
		r1.ReadAt(buf1, 0) //nolint:errcheck
		r2.ReadAt(buf2, 4) //nolint:errcheck
		if string(buf1) != "abcd" || string(buf2) != "efgh" {
			t.Errorf("handles interfered: %q, %q", buf1, buf2)
		}
		if err := r1.Close(); err != nil {
			t.Fatal(err)
		}
		if n, err := r2.ReadAt(buf2, 0); n != 4 || (err != nil && err != io.EOF) {
			t.Errorf("read after sibling close = %d, %v", n, err)
		}
		r2.Close() //nolint:errcheck
	})

	t.Run("concurrent-readat", func(t *testing.T) {
		data := make([]byte, 4096)
		for i := range data {
			data[i] = byte(i * 7)
		}
		w, _ := b.Create("c.dat")
		w.Write(data) //nolint:errcheck
		w.Close()     //nolint:errcheck
		r, err := b.Open("c.dat")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 61)
				for i := range 200 {
					off := int64((g*389 + i*97) % (len(data) - len(buf)))
					if n, err := r.ReadAt(buf, off); n != len(buf) || (err != nil && err != io.EOF) {
						errs <- fmt.Errorf("ReadAt(%d) = %d, %v", off, n, err)
						return
					}
					if !slices.Equal(buf, data[off:off+int64(len(buf))]) {
						errs <- fmt.Errorf("ReadAt(%d) read other bytes", off)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestManagerOnEveryBackend runs the element-level Manager flow (write,
// sequential scan, random reads, stats) over each backend.
func TestManagerOnEveryBackend(t *testing.T) {
	for kind, b := range backends(t) {
		t.Run(kind, func(t *testing.T) {
			m, err := NewManagerOn(b, 64) // 8 elements per block
			if err != nil {
				t.Fatal(err)
			}
			w, err := m.Create("vals.dat")
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 20; i++ {
				if err := w.Append(i * 10); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if n, err := count(m, "vals.dat"); err != nil || n != 20 {
				t.Fatalf("Size = %d, %v", n, err)
			}

			r, err := m.OpenSequential("vals.dat")
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); ; i++ {
				v, ok, err := r.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					if i != 20 {
						t.Fatalf("scan ended at %d elements", i)
					}
					break
				}
				if v != i*10 {
					t.Fatalf("element %d = %d", i, v)
				}
			}
			r.Close() //nolint:errcheck

			rr, err := m.OpenRandom("vals.dat")
			if err != nil {
				t.Fatal(err)
			}
			vals, err := rr.Block(2) // elements 16..19
			if err != nil {
				t.Fatal(err)
			}
			if len(vals) != 4 || vals[0] != 160 {
				t.Fatalf("block 2 = %v", vals)
			}
			rr.Close() //nolint:errcheck

			st := m.Stats()
			if st.SeqWrites != 3 || st.SeqReads != 3 || st.RandReads != 1 {
				t.Errorf("stats = %+v", st)
			}
		})
	}
}

// TestMetaWriteFaultEveryBackend pins the fix for meta writes bypassing the
// fault hook: on every backend, Manager.WriteMeta must consult the hook
// (as OpMetaWrite) before touching the backend, and Manager.Sync likewise
// (as OpSync), so fault-injection tests can fail manifest commits.
func TestMetaWriteFaultEveryBackend(t *testing.T) {
	injected := errors.New("injected meta fault")
	for kind, b := range backends(t) {
		t.Run(kind, func(t *testing.T) {
			m, err := NewManagerOn(b, 64)
			if err != nil {
				t.Fatal(err)
			}
			var sawMeta, sawSync bool
			m.SetFault(func(op Op, name string, block int64) error {
				switch op {
				case OpMetaWrite:
					sawMeta = true
					return injected
				case OpSync:
					sawSync = true
					return injected
				}
				return nil
			})
			if err := m.WriteMeta("M.json", []byte("{}")); !errors.Is(err, injected) {
				t.Errorf("WriteMeta under fault = %v, want injected", err)
			}
			if !sawMeta {
				t.Error("fault hook never saw OpMetaWrite")
			}
			if b.Exists("M.json") {
				t.Error("meta file written despite injected fault")
			}
			if err := m.Sync(); !errors.Is(err, injected) {
				t.Errorf("Sync under fault = %v, want injected", err)
			}
			if !sawSync {
				t.Error("fault hook never saw OpSync")
			}
			// The hook sees device-wide (prefixed) names on namespaced views.
			m.SetFault(func(op Op, name string, block int64) error {
				if op == OpMetaWrite && name != "ns/M.json" {
					return fmt.Errorf("hook saw %q, want ns/M.json", name)
				}
				return nil
			})
			view, err := m.Namespace("ns")
			if err != nil {
				t.Fatal(err)
			}
			if err := view.WriteMeta("M.json", []byte("{}")); err != nil {
				t.Errorf("namespaced WriteMeta: %v", err)
			}
		})
	}
}

// TestStatsSubClamps: Sub must clamp at zero, not wrap around.
func TestStatsSubClamps(t *testing.T) {
	big := Stats{SeqReads: 5, SeqWrites: 7, RandReads: 9, BytesRead: 11, BytesWritten: 13, Opens: 2, CacheHits: 3, CacheMisses: 4}
	if d := (Stats{}).Sub(big); d != (Stats{}) {
		t.Errorf("zero.Sub(big) = %+v, want all-zero", d)
	}
	d := (Stats{SeqReads: 6, RandReads: 4}).Sub(big)
	want := Stats{SeqReads: 1}
	if d != want {
		t.Errorf("mixed Sub = %+v, want %+v", d, want)
	}

	// Snapshots passed in the wrong order read as no I/O.
	m, err := NewManagerOn(NewMemBackend(), 64)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	w, _ := m.Create("x.dat")
	w.Append(1) //nolint:errcheck
	w.Close()   //nolint:errcheck
	if d := before.Sub(m.Stats()); d != (Stats{}) {
		t.Errorf("Sub of a later snapshot = %+v, want zeros", d)
	}
}

// TestFileBackendRequiresDir pins the constructor contract.
func TestFileBackendRequiresDir(t *testing.T) {
	if _, err := NewFileBackend(""); err == nil {
		t.Error("NewFileBackend(\"\"): want error")
	}
	if _, err := OpenBackend("tape", ""); err == nil {
		t.Error("OpenBackend(\"tape\"): want error")
	}
	b, err := OpenBackend("", t.TempDir())
	fb, ok := b.(*FileBackend)
	if err != nil || !ok {
		t.Fatalf("OpenBackend(\"\") = %v, %v", b, err)
	}
	if _, err := os.Stat(fb.root); err != nil {
		t.Errorf("file backend root missing: %v", err)
	}
	mb, err := OpenBackend("mem", "ignored")
	if _, ok := mb.(*MemBackend); err != nil || !ok {
		t.Errorf("OpenBackend(\"mem\") = %v, %v", mb, err)
	}
}
