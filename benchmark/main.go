// Command benchmark is the repository's benchmark: four closed-loop,
// fixed-work workloads driven against a real hsqd process (the gated
// end-to-end metrics) and replayed in-process under span tracing (the
// per-layer metrics). See README.md in this directory.
//
//	benchmark run       [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out file] [-spans file]
//	benchmark selfcheck [-runs N] [-workload W] [-seed N] [-out file]
//	benchmark diff      old.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadTimeout is the hard limit on one workload at scale 1; longer
// runs get proportionally more. A run that exceeds it is a harness
// failure: the child is killed and the exit code is non-zero.
const workloadTimeout = 150 * time.Second

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "selfcheck":
		err = cmdSelfcheck(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchmark run|selfcheck|diff [flags]   (see benchmark/README.md)")
	os.Exit(2)
}

// options are the flags run and selfcheck share.
type options struct {
	repo     string
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	spans    string
}

// scale is the factor on the fixed work: 1 = run_seconds of measured time.
func (o *options) scale() float64 { return o.seconds / runSeconds }

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.repo, "repo", "", "repository root (default: the working directory, or its parent when run from benchmark/)")
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "measured time to size the fixed work for")
	fs.StringVar(&o.out, "out", "", "write the results as JSON to this file (input of diff)")
}

func (o *options) resolve() error {
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	o.resolveRepo()
	return nil
}

// resolveRepo defaults the repository root: the working directory, or its
// parent when the command runs from benchmark/.
func (o *options) resolveRepo() {
	if o.repo == "" {
		o.repo = "."
		if _, err := os.Stat(filepath.Join("cmd", "hsqd")); err != nil {
			o.repo = ".."
		}
	}
}

func (o *options) selected() ([]*workloadSpec, error) {
	if o.workload == "" {
		return workloads, nil
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	return []*workloadSpec{w}, nil
}

// withEnv runs f with the build environment ready (hsqd compiled) and
// guarantees cleanup — children killed, temp dirs removed — on return,
// error, panic, SIGINT and SIGTERM alike.
func withEnv(repo string, f func(ctx context.Context, e *env) error) error {
	e, err := newEnv(repo)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer e.cleanup() // deferred calls run on a panic too
	if err := e.buildHsqd(ctx); err != nil {
		return err
	}
	// After the build, which may use every CPU; before anything is timed.
	if err := pinToOneCPU(); err != nil {
		return err
	}
	return f(ctx, e)
}

// runOne measures one workload under its hard timeout.
func runOne(ctx context.Context, e *env, w *workloadSpec, o *options) (*result, error) {
	limit := time.Duration(float64(workloadTimeout) * max(1, o.scale()))
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	var (
		res *result
		err error
	)
	if o.trace == 1 {
		res, err = e.runTrace(ctx, w, o.seed, o.scale(), o.spans)
	} else {
		res, err = e.runEndToEnd(ctx, w, o.seed, o.scale())
	}
	if err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("workload %s exceeded its %v timeout: %w", w.name, limit, err)
		}
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	return res, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var o options
	o.register(fs)
	fs.IntVar(&o.trace, "trace", 0, "1 = replay in-process under tracing and report the per-layer metrics instead")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1: write the recorded spans as JSON to this file")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if err := o.resolve(); err != nil {
		return err
	}
	ws, err := o.selected()
	if err != nil {
		return err
	}
	return withEnv(o.repo, func(ctx context.Context, e *env) error {
		var results []*result
		for _, w := range ws {
			res, err := runOne(ctx, e, w, &o)
			if err != nil {
				return err
			}
			res.print(os.Stdout)
			results = append(results, res)
		}
		if o.out != "" {
			if err := writeResults(o.out, e, results); err != nil {
				return err
			}
		}
		// The driver's contract: the last line of standard output is one
		// JSON object. With one workload it is that workload's; with all
		// four, the totals (each workload's metrics are in the lines above
		// and in -out).
		return json.NewEncoder(os.Stdout).Encode(lastLine(results))
	})
}

// driverLine is the object the driver reads from the last line.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func lastLine(results []*result) driverLine {
	out := driverLine{Metrics: map[string]metric{}}
	for _, r := range results {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	out.Correct = out.Failed == 0
	if len(results) == 1 {
		for name, v := range results[0].Metrics {
			out.Metrics[name] = metric{Value: v.Value, Unit: v.Unit} // no sample counts: value and unit only
		}
	}
	return out
}

// print lists every metric by name with its unit and sample count.
func (r *result) print(w *os.File) {
	fmt.Fprintf(w, "== %s  seed=%d scale=%.3g ops=%s  attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Scale, r.OpHash, r.Attempted, r.Failed)
	phases := make([]string, 0, len(r.Phases))
	for name := range r.Phases {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	for _, name := range phases {
		fmt.Fprintf(w, "   phase %-14s %.2f s\n", name, r.Phases[name])
	}
	if r.CalibMs > 0 {
		fmt.Fprintf(w, "   reference kernel %.2f ms; times are scaled to where it takes %.0f ms\n", r.CalibMs, calibNominalMs)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		if m.Raw != 0 {
			samples += fmt.Sprintf("  clock read %.6g", m.Raw)
		}
		fmt.Fprintf(w, "   %-34s %14.6g %-7s%s\n", name, m.Value, m.Unit, samples)
	}
}

// descriptor identifies the machine and the code a result file came from.
type descriptor struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"` // "unknown" outside a git checkout
	RunSeconds int    `json:"run_seconds"`
	Time       string `json:"time"`
}

func describe(e *env) descriptor {
	d := descriptor{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), CPUModel: "unknown", Kernel: "unknown", Commit: "unknown",
		RunSeconds: runSeconds, Time: time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				d.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		d.Kernel = strings.TrimSpace(string(data))
	}
	// Read the commit without running git: the driver's checkout has none.
	if head, err := os.ReadFile(filepath.Join(e.repo, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if sha, err := os.ReadFile(filepath.Join(e.repo, ".git", name)); err == nil {
				ref = strings.TrimSpace(string(sha))
			}
		}
		d.Commit = ref
	}
	return d
}

// resultFile is what `run -out` writes and `diff` reads.
type resultFile struct {
	Descriptor descriptor `json:"descriptor"`
	Results    []*result  `json:"results"`
}

func writeResults(path string, e *env, results []*result) error {
	data, err := json.MarshalIndent(resultFile{Descriptor: describe(e), Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
