package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
)

// spread summarises one (workload, metric) over repeated runs.
type spread struct {
	min, med, max float64
	iqr           float64 // third quartile − first quartile
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the driver's acceptance check computes. It needs
// at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld, m := len(s), len(s)+1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func spreadOf(xs []float64) spread {
	s := sorted(xs)
	sp := spread{min: s[0], med: median(s), max: s[len(s)-1]}
	if len(s) >= 2 {
		q1, q3 := quartiles(s)
		sp.iqr = q3 - q1
	}
	return sp
}

// cmdSelfcheck runs the suite several times on the current tree and shows
// how well it repeats: the check a benchmark has to pass before any number
// from it means anything.
func cmdSelfcheck(args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	var o options
	o.register(fs)
	runs := fs.Int("runs", 5, "how many times to run the suite")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if err := o.resolve(); err != nil {
		return err
	}
	ws, err := o.selected()
	if err != nil {
		return err
	}
	decl, err := loadBenchmarkJSON(o.repo)
	if err != nil {
		return err
	}
	var all []*result
	err = withEnv(o.repo, func(ctx context.Context, e *env) error {
		for i := 0; i < *runs; i++ {
			for _, w := range ws {
				res, err := runOne(ctx, e, w, &o)
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "run %d/%d %s done (failed=%d)\n", i+1, *runs, w.name, res.Failed)
				all = append(all, res)
			}
		}
		if o.out != "" {
			return writeResults(o.out, e, all)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return reportSpread(os.Stdout, decl, all)
}

// reportSpread prints the repeatability table and returns an error when a
// metric's spread exceeds its bound or an operation failed.
func reportSpread(w *os.File, decl *benchmarkJSON, all []*result) error {
	byWorkload := map[string][]*result{}
	var order []string
	for _, r := range all {
		if _, ok := byWorkload[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	var problems []string
	fmt.Fprintf(w, "| workload | metric | unit | min | median | max | (max-min)/median | IQR/median | bound | |\n|---|---|---|---|---|---|---|---|---|---|\n")
	for _, name := range order {
		rs := byWorkload[name]
		for _, r := range rs {
			if r.Failed > 0 {
				problems = append(problems, fmt.Sprintf("%s: %d of %d operations failed", name, r.Failed, r.Attempted))
			}
		}
		for _, d := range decl.EndToEnd {
			var xs []float64
			for _, r := range rs {
				if m, ok := r.Metrics[d.Name]; ok {
					xs = append(xs, m.Value)
				}
			}
			if len(xs) == 0 {
				problems = append(problems, fmt.Sprintf("%s: metric %s not reported", name, d.Name))
				continue
			}
			sp := spreadOf(xs)
			rng, iqr := ratio(sp.max-sp.min, sp.med), ratio(sp.iqr, sp.med)
			note := ""
			// The gate is the driver's: the distance between the quartiles
			// as a share of the median must stay inside the bound. (The
			// issue asked for (max-min)/median; the builder's contract
			// judges by quartiles and supersedes it. Both are printed.)
			if iqr > d.Bound {
				note = "SPREAD > BOUND"
				problems = append(problems, fmt.Sprintf("%s/%s: IQR/median %.1f%% exceeds bound %.0f%%", name, d.Name, iqr*100, d.Bound*100))
			}
			if d.Unit == "blocks" && sp.max != sp.min && !isLive(name) {
				note += " NOT IDENTICAL"
				problems = append(problems, fmt.Sprintf("%s/%s: a block count differs between runs of one seed (%g..%g)", name, d.Name, sp.min, sp.max))
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.5g | %.5g | %.5g | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				name, d.Name, d.Unit, sp.min, sp.med, sp.max, rng*100, iqr*100, d.Bound*100, note)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(w, "PROBLEM:", p)
		}
		return errors.New("selfcheck failed")
	}
	return nil
}

func isLive(workload string) bool {
	w, err := workloadByName(workload)
	return err == nil && w.live()
}
