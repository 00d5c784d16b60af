package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env locates the checkout and the scratch directory every build output and
// warehouse of a run lives in. Everything is inside the checkout: the
// benchmark reads and writes nowhere else.
type env struct {
	repo  string // repository root (holds go.mod of module repro)
	build string // <repo>/.bench_build
	hsqd  string // built binary
	cal   *calibrator

	mu   sync.Mutex
	dirs []string  // live temp dirs, removed by cleanup
	srvs []*server // live children, killed by cleanup
}

func newEnv(repo string) (*env, error) {
	abs, err := filepath.Abs(repo)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(abs, "cmd", "hsqd")); err != nil {
		return nil, fmt.Errorf("%s is not the repository root (no cmd/hsqd): %w", abs, err)
	}
	e := &env{repo: abs, build: filepath.Join(abs, ".bench_build"), cal: newCalibrator(calibValues)}
	if err := os.MkdirAll(filepath.Join(e.build, "bin"), 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// buildHsqd compiles cmd/hsqd from the checkout's source. Untimed; with a
// warm build cache it is a fraction of a second.
func (e *env) buildHsqd(ctx context.Context) error {
	e.hsqd = filepath.Join(e.build, "bin", "hsqd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.hsqd, "./cmd/hsqd")
	cmd.Dir = e.repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/hsqd: %w\n%s", err, out)
	}
	return nil
}

// tempDir makes a fresh directory under .bench_build; the pid keeps
// overlapping runs apart.
func (e *env) tempDir(label string) (string, error) {
	dir, err := os.MkdirTemp(e.build, fmt.Sprintf("run-%d-%s-", os.Getpid(), label))
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.dirs = append(e.dirs, dir)
	e.mu.Unlock()
	return dir, nil
}

func (e *env) removeDir(dir string) {
	os.RemoveAll(dir) //nolint:errcheck // scratch; cleanup retries at exit
	e.mu.Lock()
	e.dirs = slices.DeleteFunc(e.dirs, func(d string) bool { return d == dir })
	e.mu.Unlock()
}

// cleanup kills every child still running and removes every temp dir. It
// runs on every exit path: normal return, error, panic, signal, timeout.
func (e *env) cleanup() {
	e.mu.Lock()
	srvs, dirs := e.srvs, e.dirs
	e.srvs, e.dirs = nil, nil
	e.mu.Unlock()
	for _, s := range srvs {
		s.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d) //nolint:errcheck // best effort at exit
	}
}

// server is one hsqd child process.
type server struct {
	env      *env
	cmd      *exec.Cmd
	dir      string
	httpAddr string
	ingAddr  string
	stderr   bytes.Buffer
	done     chan struct{} // closed when the process has been waited for
	waitErr  error
	http     *http.Client
	startDur time.Duration // exec → first 200 from /healthz
}

// freePort asks the kernel for an unused loopback port. The port is free
// when probed, not reserved: start retries on a lost race.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches hsqd on dir (fresh or holding a warehouse to resume)
// and returns once /healthz answers.
func (e *env) startServer(ctx context.Context, dir string, w *workloadSpec) (*server, error) {
	var last error
	for attempt := 0; attempt < 5; attempt++ {
		s, err := e.tryStart(ctx, dir, w)
		if err == nil {
			return s, nil
		}
		last = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, last
}

func (e *env) tryStart(ctx context.Context, dir string, w *workloadSpec) (*server, error) {
	hp, err := freePort()
	if err != nil {
		return nil, err
	}
	ip, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{
		env: e, dir: dir,
		httpAddr: fmt.Sprintf("127.0.0.1:%d", hp),
		ingAddr:  fmt.Sprintf("127.0.0.1:%d", ip),
		done:     make(chan struct{}),
		// One keep-alive connection carries every REST call of a run.
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	args := append([]string{
		"-dir", dir, "-addr", s.httpAddr, "-ingest-addr", s.ingAddr,
		"-epsilon", fmt.Sprint(epsilon), "-kappa", fmt.Sprint(kappa), "-maintenance", "sync",
	}, w.hsqdArgs()...)
	s.cmd = exec.Command(e.hsqd, args...)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "GOGC=100") // one CPU: see pinToOneCPU
	s.cmd.Stderr = &s.stderr
	// The child must not outlive the benchmark, whatever kills it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hsqd: %w", err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.done)
	}()
	e.mu.Lock()
	e.srvs = append(e.srvs, s)
	e.mu.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := s.get(ctx, "/healthz", nil); err == nil {
			s.startDur = time.Since(t0)
			return s, nil
		}
		select {
		case <-s.done:
			s.forget()
			return nil, fmt.Errorf("hsqd exited during start: %v\n%s", s.waitErr, s.stderr.String())
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("hsqd not healthy after 10s\n%s", s.stderr.String())
		}
	}
}

func (s *server) forget() {
	s.http.CloseIdleConnections()
	s.env.mu.Lock()
	s.env.srvs = slices.DeleteFunc(s.env.srvs, func(x *server) bool { return x == s })
	s.env.mu.Unlock()
}

// kill ends the child at once and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-s.done
	s.forget()
}

// stop asks for hsqd's graceful shutdown (drain, final checkpoint) and
// waits for the process to end; a child that ignores SIGTERM is killed.
func (s *server) stop() error {
	s.http.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("SIGTERM hsqd: %w", err)
	}
	select {
	case <-s.done:
	case <-time.After(40 * time.Second):
		s.kill()
		return fmt.Errorf("hsqd ignored SIGTERM for 40s\n%s", s.stderr.String())
	}
	s.forget()
	if s.waitErr != nil {
		return fmt.Errorf("hsqd exit: %w\n%s", s.waitErr, s.stderr.String())
	}
	return nil
}

// do sends one request on the keep-alive connection and decodes a JSON
// reply into out (when non-nil). A non-2xx status is an error carrying the
// body.
func (s *server) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+s.httpAddr+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (s *server) get(ctx context.Context, path string, out any) error {
	return s.do(ctx, http.MethodGet, path, nil, out)
}

// deviceStats is the shared-device aggregate of GET /streams.
type deviceStats struct {
	SeqReads  uint64 `json:"io_seq_reads"`
	SeqWrites uint64 `json:"io_seq_writes"`
	RandReads uint64 `json:"io_rand_reads"`
	CacheHits uint64 `json:"io_cache_hits"`
}

func (s *server) deviceStats(ctx context.Context) (deviceStats, error) {
	var reply struct {
		Device deviceStats `json:"device"`
	}
	err := s.get(ctx, "/streams", &reply)
	return reply.Device, err
}

// cpuTimes reads the child's cumulative user and system CPU seconds from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func (s *server) cpuTimes() (user, sys float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat line: %q", data)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	const clockTick = 100 // USER_HZ; fixed at 100 on Linux
	return ut / clockTick, st / clockTick, nil
}

// statusMB reads one memory field (VmRSS, VmHWM) of /proc/<pid>/status.
func (s *server) statusMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// rssInterval is how often the resident set is sampled. A peak is one
// sample and moves with the phase of the last GC cycle; the median of a
// few hundred samples does not.
const rssInterval = 50 * time.Millisecond

// rssSample is the child's resident set at one instant.
type rssSample struct {
	at time.Time
	mb float64
}

// sampleRSS appends the child's resident set to *into every rssInterval
// until the returned stop function is called; stop waits for the sampler.
func (s *server) sampleRSS(into *[]rssSample) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	sample := func() {
		if mb, err := s.statusMB("VmRSS"); err == nil {
			*into = append(*into, rssSample{time.Now(), mb})
		}
	}
	go func() {
		defer close(done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				sample() // a run shorter than the interval still has one
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() { close(quit); <-done }
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies a warehouse directory tree (regular files only).
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
