package main

import (
	"context"
	"math"
	"regexp"
	"testing"
	"time"
)

// smokeScale shrinks every workload to a second or two: the floors on step
// and query counts apply, step sizes shrink with them.
const smokeScale = 0.01

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all four workloads end to end and traced at smoke scale
// and holds the output to BENCHMARK.json: every declared name is emitted
// with its declared unit and nothing fails.
func TestSmoke(t *testing.T) {
	decl, err := loadBenchmarkJSON("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q (or their whys differ)", i, w.Name, workloads[i].name)
		}
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the program is sized for %d", decl.RunSeconds, runSeconds)
	}

	e, err := newEnv("..")
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	e.cal = newCalibrator(1 << 12) // the code path, not the 50 ms kernel
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := e.buildHsqd(ctx); err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, res *result, decls []metricDecl) {
		t.Helper()
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("attempted=%d failed=%d: %v", res.Attempted, res.Failed, res.Failures)
		}
		for _, d := range decls {
			m, ok := res.Metrics[d.Name]
			switch {
			case !nameRE.MatchString(d.Name):
				t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
			case !ok:
				t.Errorf("metric %s not emitted", d.Name)
			case m.Unit != d.Unit:
				t.Errorf("metric %s emitted in %q, declared in %q", d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("metric %s = %v", d.Name, m.Value)
			}
		}
		if len(res.Metrics) != len(decls) {
			t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(decls))
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := e.runEndToEnd(ctx, w, 7, smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, decl.EndToEnd)
			for _, d := range decl.EndToEnd {
				// CPU comes in 10 ms ticks: a smoke-scale slice can see none.
				if res.Metrics[d.Name].Value <= 0 && d.Name != "server_cpu_s" {
					t.Errorf("end-to-end metric %s = %v; the contract wants it never 0", d.Name, res.Metrics[d.Name].Value)
				}
			}

			tr, err := e.runTrace(ctx, w, 7, smokeScale, "")
			if err != nil {
				t.Fatal(err)
			}
			check(t, tr, decl.PerLayer)
		})
	}
}

// TestOpSequenceIsAFunctionOfTheSeed: equal seeds, equal inputs; another
// seed, other inputs.
func TestOpSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := buildOps(w, 7, smokeScale), buildOps(w, 7, smokeScale), buildOps(w, 8, smokeScale)
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 hashed to %s and %s", w.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 both hash to %s", w.name, a.hash)
		}
	}
}

// TestOracleGateFires feeds the checker an answer outside the bound, one
// inside it, and an error reply.
func TestOracleGateFires(t *testing.T) {
	ops := &opSeq{streams: []string{"s"}}
	chk := newChecker(ops)
	vals := make([]int64, 100_000)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	chk.ack(step{stream: 0, values: vals})
	q := readOp{stream: 0, phis: []float64{0.5}}
	// ⌈ε·N⌉ = 100 ranks: 50 100 is inside, 50 101 outside.
	chk.check(q, answer{keys: []string{""}, values: [][]int64{{50_100}}})
	if chk.failed != 0 {
		t.Fatalf("an answer 100 ranks off failed the gate: %v", chk.failures)
	}
	chk.check(q, answer{keys: []string{""}, values: [][]int64{{50_101}}})
	if chk.failed != 1 {
		t.Fatalf("an answer 101 ranks off passed the gate (bound 100)")
	}
	chk.opError("query", context.DeadlineExceeded)
	if chk.failed != 2 || chk.attempted != 4 {
		t.Fatalf("after one ack, two checks and one error: attempted=%d failed=%d", chk.attempted, chk.failed)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v, %v; Python gives 1, 3", q1, q3)
	}
}

func TestDiffVerdict(t *testing.T) {
	for _, c := range []struct {
		better           string
		old, new, spread float64
		want             string
	}{
		{"lower", 10, 10.5, 0.02, "within-bound"},
		{"lower", 10, 12, 0.02, "worse"},
		{"lower", 10, 8, 0.02, "better"},
		{"higher", 10, 8, 0.02, "worse"},
		{"higher", 10, 12, 0.02, "better"},
		{"lower", 10, 12, 0.2, "unresolved"},
	} {
		if got := verdict(c.better, c.old, c.new, c.spread, 0.1); got != c.want {
			t.Errorf("verdict(%s, %v→%v, spread %v) = %s, want %s", c.better, c.old, c.new, c.spread, got, c.want)
		}
	}
}
