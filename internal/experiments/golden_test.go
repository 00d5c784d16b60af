package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The figure goldens pin every non-timing cell of every figure at -scale
// small on the mem backend: rank errors, block I/O counts, memory sizes and
// the axes, the paper's own currency. They are deterministic (fixed seeds, no
// file I/O), so a change that moves one is a change to what the paper's
// figures report. Regenerate intentionally, and name the move, with:
//
//	go test ./internal/experiments -run TestFigureGoldens -update
var update = flag.Bool("update", false, "rewrite testdata/<table>.golden instead of comparing")

// wallClock reports whether a table column measures wall-clock time, the one
// kind of cell that varies run to run and is left out of the goldens: a
// "_ms" or "_s" suffix, fig. 6's per-phase seconds and its "…Total" sums.
func wallClock(col string) bool {
	switch col {
	case "Load", "Sort", "Merge", "Summary":
		return true
	}
	return strings.HasSuffix(col, "_ms") || strings.HasSuffix(col, "_s") || strings.HasSuffix(col, "Total")
}

// withoutWallClock returns t's CSV with the wall-clock columns dropped.
func withoutWallClock(t *Table) []byte {
	keep := &Table{XLabel: t.XLabel}
	var cols []int
	for i, c := range t.Columns {
		if !wallClock(c) {
			keep.Columns = append(keep.Columns, c)
			cols = append(cols, i)
		}
	}
	for _, r := range t.Rows {
		cells := make([]float64, len(cols))
		for j, i := range cols {
			cells[j] = r.Cells[i]
		}
		keep.AddRow(r.X, cells...)
	}
	var b bytes.Buffer
	keep.CSV(&b) //nolint:errcheck // a bytes.Buffer does not fail
	return b.Bytes()
}

// TestFigureGoldens runs every figure id at -scale small on -backend mem and
// compares each table, wall-clock columns dropped, to testdata/<table>.golden.
func TestFigureGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure at -scale small (about 20 s)")
	}
	sc := Small
	sc.Backend = "mem"
	seen := map[string]bool{}
	for _, f := range figures {
		tables, err := f.fn(sc, t.TempDir())
		if err != nil {
			t.Fatalf("figure %s: %v", f.id, err)
		}
		for _, tab := range tables {
			seen[tab.ID+".golden"] = true
			got := withoutWallClock(tab)
			path := filepath.Join("testdata", tab.ID+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("figure %s: %v (run with -update to create)", f.id, err)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("figure %s: %s moved\n--- got ---\n%s--- want ---\n%s", f.id, path, got, want)
			}
		}
	}
	files, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range files {
		if strings.HasSuffix(e.Name(), ".golden") && !seen[e.Name()] {
			t.Errorf("testdata/%s belongs to no table any figure produces", e.Name())
		}
	}
}
