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

// figures is the one table of figure identifiers and their implementations,
// in presentation order: the paper's figures, then our ablations.
var figures = []struct {
	id string
	fn FigureFunc
}{
	{"4", Fig4},
	{"5", Fig5},
	{"6", Fig6},
	{"7", Fig7},
	{"8", Fig8},
	{"9", Fig9},
	{"10", Fig10},
	{"11", Fig11},
	{"12", Fig12},
	{"13", Fig13},
	{"ablation-split", AblationSplit},
	{"ablation-pinning", AblationPinning},
	{"ablation-iobudget", AblationIOBudget},
	{"baselines", AblationBaselines},
	{"theory", TheoryTable},
}

// FigureIDs returns the figure identifiers in presentation order.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// Run executes one figure, renders its tables to w, and (if outDir is
// non-empty) writes one CSV per table into outDir.
func Run(id string, sc Scale, w io.Writer, outDir string) error {
	var fn FigureFunc
	for _, f := range figures {
		if f.id == id {
			fn = f.fn
			break
		}
	}
	if fn == nil {
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
