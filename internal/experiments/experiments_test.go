package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tiny is a minimal scale so tests run in seconds.
var tiny = Scale{
	Name: "tiny", Steps: 8, BatchSize: 1500, StreamSize: 1500,
	Repeats: 1, MemFractions: []float64{0.15, 0.25},
	Kappas: []int{2, 3}, BlockSize: 1024,
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "large"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Errorf("%s: %+v, %v", name, sc, err)
		}
	}
	if _, err := ScaleByName("nope"); err == nil {
		t.Error("unknown scale: want error")
	}
}

func TestScaleArithmetic(t *testing.T) {
	if tiny.TotalElements() != 8*1500+1500 {
		t.Errorf("TotalElements = %d", tiny.TotalElements())
	}
	if tiny.DataBytes() != tiny.TotalElements()*8 {
		t.Errorf("DataBytes = %d", tiny.DataBytes())
	}
	bs := tiny.MemBudgets()
	if len(bs) != 2 || bs[0] >= bs[1] {
		t.Errorf("MemBudgets = %v", bs)
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", XLabel: "k", Columns: []string{"a", "b"}}
	tab.AddRow(1, 0.5, math.NaN())
	tab.AddRow(2, 123456789, 1e-9)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== x: T ==") || !strings.Contains(out, "0.5") {
		t.Errorf("render output:\n%s", out)
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "k,a,b" {
		t.Errorf("csv:\n%s", buf.String())
	}
	// NaN renders as empty cell.
	if !strings.HasSuffix(lines[1], ",") {
		t.Errorf("NaN cell not blank: %q", lines[1])
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) should be NaN")
	}
	if m := mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %g", m)
	}
	if !math.IsNaN(mean(nil)) {
		t.Error("mean(nil) should be NaN")
	}
}

func TestMakeDataset(t *testing.T) {
	ds, err := makeDataset("uniform", 1, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.batches) != tiny.Steps || len(ds.stream) != tiny.StreamSize {
		t.Error("dataset shape wrong")
	}
	if ds.orc.Count() != tiny.TotalElements() {
		t.Errorf("oracle count = %d", ds.orc.Count())
	}
	if _, err := makeDataset("nope", 1, tiny); err == nil {
		t.Error("unknown workload: want error")
	}
}

func TestBaselinePlanners(t *testing.T) {
	// Monotone: more budget → smaller eps.
	prev := 1.0
	for _, b := range []int64{1 << 10, 1 << 14, 1 << 18, 1 << 22} {
		eps := gkEpsForBudget(b, 1_000_000)
		if eps > prev {
			t.Errorf("gk eps increased with budget")
		}
		prev = eps
	}
	if eps := qdigestEpsForBudget(48*30, 30); math.Abs(eps-0.5) > 1e-9 {
		t.Errorf("qdigest tiny budget eps = %g, want clamp 0.5", eps)
	}
	if eps := qdigestEpsForBudget(1<<30, 30); eps >= 0.001 {
		t.Errorf("qdigest big budget eps = %g", eps)
	}
}

func TestBaselineRunners(t *testing.T) {
	ds, err := makeDataset("uniform", 3, tiny)
	if err != nil {
		t.Fatal(err)
	}
	budget := tiny.MemBudgets()[0]
	gkRes, err := runGKBaseline(ds, budget, tiny.TotalElements())
	if err != nil {
		t.Fatal(err)
	}
	if gkRes.relErr < 0 || gkRes.relErr > 1 {
		t.Errorf("GK relErr = %g", gkRes.relErr)
	}
	qdRes, err := runQDigestBaseline(ds, budget)
	if err != nil {
		t.Fatal(err)
	}
	if qdRes.relErr < 0 || qdRes.relErr > 2 {
		t.Errorf("QDigest relErr = %g", qdRes.relErr)
	}
	smRes, err := runSampleBaseline(ds, budget, 1)
	if err != nil {
		t.Fatal(err)
	}
	if smRes.relErr < 0 || smRes.relErr > 2 {
		t.Errorf("sample relErr = %g", smRes.relErr)
	}
}

// TestFig4Shape runs the headline accuracy figure at tiny scale and checks
// the paper's qualitative result: the accurate hybrid beats both pure
// streaming baselines at every budget.
func TestFig4Shape(t *testing.T) {
	tables, err := Fig4(tinyOneWorkload(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		for _, row := range tab.Rows {
			ours, gk, qd := row.Cells[0], row.Cells[1], row.Cells[2]
			if ours > gk {
				t.Errorf("%s budget=%g: ours %g worse than GK %g", tab.ID, row.X, ours, gk)
			}
			if ours > qd {
				t.Errorf("%s budget=%g: ours %g worse than QDigest %g", tab.ID, row.X, ours, qd)
			}
		}
	}
}

// tinyOneWorkload restricts tiny to the uniform dataset: heavy-duplicate
// workloads can give every method zero error at tiny scale, which makes
// ordering assertions meaningless.
func tinyOneWorkload() Scale {
	sc := tiny
	sc.Datasets = []string{"uniform"}
	return sc
}

func TestFig8CDF(t *testing.T) {
	tables, err := Fig8(tiny, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatal("want one table")
	}
	tab := tables[0]
	// CDF columns must be non-decreasing in the percentile.
	for c := 0; c < len(tab.Columns); c++ {
		prev := -1.0
		for _, row := range tab.Rows {
			if row.Cells[c] < prev {
				t.Errorf("%s: column %d decreases", tab.ID, c)
			}
			prev = row.Cells[c]
		}
	}
}

func TestFig11Windows(t *testing.T) {
	tables, err := Fig11(tiny, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("want 2 tables (κ=3, κ=10), got %d", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no windows", tab.ID)
		}
	}
}

func TestRunRegistryAndCSV(t *testing.T) {
	out := t.TempDir()
	var buf bytes.Buffer
	if err := Run("ablation-pinning", tiny, &buf, out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ablation-pinning") {
		t.Error("missing header")
	}
	files, err := os.ReadDir(out)
	if err != nil || len(files) == 0 {
		t.Fatalf("no CSVs written: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(out, files[0].Name()))
	if err != nil || len(data) == 0 {
		t.Error("empty CSV")
	}
	if err := Run("nope", tiny, &buf, ""); err == nil {
		t.Error("unknown figure: want error")
	}
}

// TestFigureIDsComplete pins the one figure table: the 15 ids `hsqbench
// -list` prints, in presentation order, each with an implementation.
func TestFigureIDsComplete(t *testing.T) {
	want := []string{"4", "5", "6", "7", "8", "9", "10", "11", "12", "13",
		"ablation-split", "ablation-pinning", "ablation-iobudget", "baselines", "theory"}
	if got := FigureIDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("FigureIDs = %v, want %v", got, want)
	}
	for _, f := range figures {
		if f.fn == nil {
			t.Errorf("figure %s has no implementation", f.id)
		}
	}
}

func TestPlainStore(t *testing.T) {
	dir := t.TempDir()
	dev, err := diskManager(dir, 1024)
	if err != nil {
		t.Fatal(err)
	}
	ps := newPlainStore(dev, 2)
	for i := 0; i < 5; i++ {
		batch := make([]int64, 100)
		for j := range batch {
			batch[j] = int64(i*100 + j)
		}
		load, _, io, err := ps.addBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if load <= 0 || io.SeqWrites == 0 {
			t.Error("plain store load did nothing")
		}
	}
	for lvl, ps := range ps.levels {
		if len(ps) > 2 {
			t.Errorf("level %d exceeds kappa", lvl)
		}
	}
}

// TestMoreFiguresSmoke exercises the remaining figure functions end to end
// at tiny scale — shapes are asserted by the dedicated tests above; here we
// check they run, produce non-empty tables, and respect the scale's axes.
func TestMoreFiguresSmoke(t *testing.T) {
	sc := tinyOneWorkload()
	root := t.TempDir()

	t5, err := Fig5(sc, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(t5) != 1 || len(t5[0].Rows) != len(sc.Kappas) {
		t.Errorf("fig5 shape: %d tables", len(t5))
	}
	t6, err := Fig6(sc, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(t6[0].Rows) != len(sc.MemFractions) {
		t.Errorf("fig6 rows = %d", len(t6[0].Rows))
	}
	t7, err := Fig7(sc, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(t7[0].Rows) != len(sc.Kappas) {
		t.Errorf("fig7 rows = %d", len(t7[0].Rows))
	}
	t9, err := Fig9(sc, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(t9[0].Rows) == 0 {
		t.Error("fig9 empty")
	}
	t10, err := Fig10(sc, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(t10[0].Rows) == 0 {
		t.Error("fig10 empty")
	}
	t12, err := Fig12(sc, root)
	if err != nil {
		t.Fatal(err)
	}
	// Fig12: error must broadly fall as history grows (compare first/last).
	first, last := t12[0].Rows[0].Cells[0], t12[0].Rows[len(t12[0].Rows)-1].Cells[0]
	if last > first*3 {
		t.Errorf("fig12: error grew with history: %g -> %g", first, last)
	}
	t13, err := Fig13(sc, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(t13[0].Rows) == 0 {
		t.Error("fig13 empty")
	}
	for _, id := range []string{"ablation-split", "ablation-iobudget", "baselines", "theory"} {
		var buf bytes.Buffer
		if err := Run(id, sc, &buf, ""); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

// TestRunMemBackend drives a full figure through the registry with the
// memory backend and a block cache — the cmd/hsqbench --backend=mem path.
func TestRunMemBackend(t *testing.T) {
	sc := tiny
	sc.Backend = "mem"
	sc.CacheBlocks = 256
	var buf bytes.Buffer
	if err := Run("ablation-pinning", sc, &buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ablation-pinning") {
		t.Error("missing header")
	}
	// Fig6 exercises the plainStore/pureStreamingUpdate path as well.
	if err := Run("6", sc, &buf, ""); err != nil {
		t.Fatal(err)
	}
}
