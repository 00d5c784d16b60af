package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// ungatedBound is the change a per-layer metric must exceed to be called
// better or worse in a diff. Per-layer metrics carry no bound in
// BENCHMARK.json: the verdict is a reading aid, not a gate.
const ungatedBound = 0.10

// cmdDiff compares two result files written by `run -out` or
// `selfcheck -out`: per (workload, metric) the ratio new/old with its base
// and a verdict. A file may hold several runs of a workload; medians are
// compared, and the old side's spread decides whether a metric can be
// resolved at all. It reads nothing but the two files and BENCHMARK.json.
func cmdDiff(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: benchmark diff old.json new.json")
	}
	older, err := readResults(args[0])
	if err != nil {
		return err
	}
	newer, err := readResults(args[1])
	if err != nil {
		return err
	}
	var o options
	o.resolveRepo()
	decl, err := loadBenchmarkJSON(o.repo)
	if err != nil {
		return err
	}
	fmt.Printf("old: %s  commit %s  %s\nnew: %s  commit %s  %s\n",
		args[0], older.Descriptor.Commit, older.Descriptor.Time,
		args[1], newer.Descriptor.Commit, newer.Descriptor.Time)
	worse := diffResults(os.Stdout, decl, older.Results, newer.Results)
	if worse > 0 {
		return fmt.Errorf("%d gated metric(s) worse beyond bound", worse)
	}
	return nil
}

// samples collects a metric's values per workload.
func samples(rs []*result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// verdict classifies a change. ratio is new/old; a metric whose old-side
// runs spread wider than the bound cannot be resolved either way.
func verdict(better string, oldMed, newMed, oldSpread, bound float64) string {
	if oldMed == 0 {
		if newMed == 0 {
			return "within-bound"
		}
		return "unresolved"
	}
	if oldSpread > bound {
		return "unresolved"
	}
	change := newMed/oldMed - 1
	if better == "lower" {
		change = -change
	}
	switch {
	case change > bound:
		return "better"
	case change < -bound:
		return "worse"
	}
	return "within-bound"
}

// diffResults prints the comparison and returns how many gated metrics got
// worse beyond their bound.
func diffResults(w *os.File, decl *benchmarkJSON, older, newer []*result) int {
	decls := map[string]metricDecl{}
	gated := map[string]bool{}
	for _, d := range decl.EndToEnd {
		decls[d.Name], gated[d.Name] = d, true
	}
	for _, d := range decl.PerLayer {
		d.Bound = ungatedBound
		decls[d.Name] = d
	}
	olds, news := samples(older), samples(newer)
	var names []string
	for name := range olds {
		if _, ok := news[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	worse := 0
	fmt.Fprintf(w, "| workload | metric | old (base) | new | new/old | bound | verdict |\n|---|---|---|---|---|---|---|\n")
	for _, wl := range names {
		var metrics []string
		for name := range olds[wl] {
			if _, ok := news[wl][name]; ok {
				metrics = append(metrics, name)
			}
		}
		// Gated metrics first, then the layers.
		sort.Slice(metrics, func(i, j int) bool {
			if gated[metrics[i]] != gated[metrics[j]] {
				return gated[metrics[i]]
			}
			return metrics[i] < metrics[j]
		})
		for _, name := range metrics {
			d, known := decls[name]
			if !known {
				continue // not in BENCHMARK.json: no direction to judge by
			}
			so, sn := spreadOf(olds[wl][name]), spreadOf(news[wl][name])
			v := verdict(d.Better, so.med, sn.med, ratio(so.iqr, so.med), d.Bound)
			bound := fmt.Sprintf("%.0f%%", d.Bound*100)
			if !gated[name] {
				bound = "(ungated)"
			} else if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "| %s | %s | %.6g %s | %.6g | %.3f | %s | %s |\n",
				wl, name, so.med, d.Unit, sn.med, ratio(sn.med, so.med), bound, v)
		}
	}
	return worse
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
