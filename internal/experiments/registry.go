package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// FigureFunc produces the tables for one figure at the given scale, using
// root as scratch space for warehouse directories.
type FigureFunc func(sc Scale, root string) ([]*Table, error)

// Registry maps figure identifiers to their implementations, in the
// paper's order plus our ablations.
var Registry = map[string]FigureFunc{
	"4":                 Fig4,
	"5":                 Fig5,
	"6":                 Fig6,
	"7":                 Fig7,
	"8":                 Fig8,
	"9":                 Fig9,
	"10":                Fig10,
	"11":                Fig11,
	"12":                Fig12,
	"13":                Fig13,
	"ablation-split":    AblationSplit,
	"ablation-pinning":  AblationPinning,
	"ablation-iobudget": AblationIOBudget,
	"baselines":         AblationBaselines,
	"theory":            TheoryTable,
}

// FigureIDs returns the registry keys in presentation order
// (TestFigureIDsComplete holds the list to the registry).
func FigureIDs() []string {
	return []string{"4", "5", "6", "7", "8", "9", "10", "11", "12", "13",
		"ablation-split", "ablation-pinning", "ablation-iobudget", "baselines", "theory"}
}

// Run executes one figure, renders its tables to w, and (if outDir is
// non-empty) writes one CSV per table into outDir.
func Run(id string, sc Scale, w io.Writer, outDir string) error {
	fn, ok := Registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown figure %q (have %v)", id, FigureIDs())
	}
	scratch, err := os.MkdirTemp("", "hsq-exp-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch) //nolint:errcheck

	start := time.Now()
	tables, err := fn(sc, scratch)
	if err != nil {
		return fmt.Errorf("experiments: figure %s: %w", id, err)
	}
	fmt.Fprintf(w, "# figure %s (scale=%s, %s)\n\n", id, sc.Name, time.Since(start).Round(time.Millisecond))
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(outDir, t.ID+".csv"))
			if err != nil {
				return err
			}
			if err := t.CSV(f); err != nil {
				f.Close() //nolint:errcheck
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
