// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 3) at configurable scale, plus the ablations called
// out in DESIGN.md. Each figure is a function from a Scale to a set of
// Tables; cmd/hsqbench renders them as text and CSV.
//
// Scaling note: the paper runs 50-100 GB datasets with 100-500 MB of summary
// memory (0.1%-0.5% of data size) and m/N ≈ 1%. The scales here preserve
// those *ratios* at laptop size, which preserves every reported shape: who
// wins, by what factor, and how costs move with memory, κ, history size and
// stream size. See EXPERIMENTS.md for paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// Scale fixes the data volumes for one experiment campaign.
type Scale struct {
	// Name tags output files.
	Name string
	// Steps is T, the number of time steps loaded into the warehouse.
	Steps int
	// BatchSize is the number of elements per time step.
	BatchSize int
	// StreamSize is the size m of the in-flight stream when queries run.
	StreamSize int
	// Repeats is the number of runs (different seeds) whose median is
	// reported for accuracy figures; the paper uses 7.
	Repeats int
	// MemFractions are summary-memory budgets as fractions of the raw data
	// size (the paper sweeps 0.1%-0.5% of ~100 GB).
	MemFractions []float64
	// Kappas is the κ sweep (the paper uses 2..30).
	Kappas []int
	// BlockSize is the device block size in bytes.
	BlockSize int
	// Backend selects the warehouse storage backend for every run in the
	// campaign: "file" (default) or "mem". The memory backend removes real
	// file I/O from the measurement loop, isolating the algorithmic block
	// counts (cmd/hsqbench exposes this as --backend).
	Backend string
	// CacheBlocks, when positive, gives every engine in the campaign a
	// block cache of that many blocks.
	CacheBlocks int
	// Datasets optionally restricts the workloads swept (default: all of
	// Workloads, the paper's four panels).
	Datasets []string
}

// workloads returns the datasets this scale sweeps.
func (s Scale) workloads() []string {
	if len(s.Datasets) > 0 {
		return s.Datasets
	}
	return Workloads
}

// DataBytes returns the raw size of the full dataset in bytes.
func (s Scale) DataBytes() int64 {
	return int64(s.Steps)*int64(s.BatchSize)*8 + int64(s.StreamSize)*8
}

// TotalElements returns N at query time.
func (s Scale) TotalElements() int64 {
	return int64(s.Steps)*int64(s.BatchSize) + int64(s.StreamSize)
}

// MemBudgets materializes MemFractions into byte budgets.
func (s Scale) MemBudgets() []int64 {
	out := make([]int64, len(s.MemFractions))
	for i, f := range s.MemFractions {
		out[i] = int64(f * float64(s.DataBytes()))
	}
	return out
}

// Predefined scales. Small runs in seconds (tests, benches); Medium is the
// default for cmd/hsqbench; Large approaches the paper's step counts.
var (
	Small = Scale{
		Name: "small", Steps: 20, BatchSize: 4000, StreamSize: 4000,
		Repeats: 3, MemFractions: []float64{0.03, 0.06, 0.1},
		Kappas: []int{2, 3, 5, 10}, BlockSize: 4096,
	}
	Medium = Scale{
		Name: "medium", Steps: 100, BatchSize: 20000, StreamSize: 20000,
		Repeats: 2, MemFractions: []float64{0.001, 0.002, 0.003, 0.004, 0.005},
		Kappas: []int{2, 3, 5, 7, 9, 10, 15, 20, 25, 30}, BlockSize: 100 * 1024,
	}
	Large = Scale{
		Name: "large", Steps: 100, BatchSize: 300000, StreamSize: 300000,
		Repeats: 3, MemFractions: []float64{0.001, 0.002, 0.003, 0.004, 0.005},
		Kappas: []int{2, 3, 5, 7, 9, 10, 15, 20, 25, 30}, BlockSize: 100 * 1024,
	}
)

// ScaleByName resolves a scale name.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q (small|medium|large)", name)
	}
}

// Table is one figure panel: an x-axis sweep with one column per series.
type Table struct {
	// ID is the figure identifier, e.g. "fig4a-uniform".
	ID string
	// Title describes the panel (paper figure caption).
	Title string
	// XLabel names the x axis.
	XLabel string
	// Columns names the series.
	Columns []string
	// Rows holds the sweep.
	Rows []Row
}

// Row is one x position with one cell per column. NaN cells render blank.
type Row struct {
	X     float64
	Cells []float64
}

// AddRow appends a row.
func (t *Table) AddRow(x float64, cells ...float64) {
	t.Rows = append(t.Rows, Row{X: x, Cells: cells})
}

// Render writes an aligned, human-readable table.
func (t *Table) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	headers := append([]string{t.XLabel}, t.Columns...)
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	cells := make([][]string, len(t.Rows))
	for ri, r := range t.Rows {
		row := make([]string, 0, len(headers))
		row = append(row, formatCell(r.X))
		for _, c := range r.Cells {
			row = append(row, formatCell(c))
		}
		for i, s := range row {
			if i < len(widths) && len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
		cells[ri] = row
	}
	for i, h := range headers {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
		_ = i
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], s)
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(strings.Join(append([]string{t.XLabel}, t.Columns...), ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(formatCell(r.X))
		for _, c := range r.Cells {
			b.WriteByte(',')
			b.WriteString(formatCell(c))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatCell(v float64) string {
	switch {
	case math.IsNaN(v):
		return ""
	case v == math.Trunc(v) && math.Abs(v) < 1e12:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 0.01 && math.Abs(v) < 1e6:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.3e", v)
	}
}

// median returns the median of xs (which it sorts in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean returns the arithmetic mean.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Workloads lists the evaluation datasets in the paper's panel order
// (a: Uniform Random, b: Normal, c: Wikipedia, d: Network Trace).
var Workloads = []string{"uniform", "normal", "wikipedia", "nettrace"}

// QueryPhi is the quantile used for error measurements (the median, the
// most common target in the paper's motivating applications).
const QueryPhi = 0.5
