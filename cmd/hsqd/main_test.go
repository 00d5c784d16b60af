package main

import (
	"bufio"
	"errors"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
)

// TestSimulateDiskFlag runs hsqd's main in a child process (the test binary
// re-executed with HSQD_MAIN_ARGS set): -simulate-disk with an unknown
// profile fails start-up with the Options error, and each known profile
// starts a server that shuts down cleanly on SIGTERM.
func TestSimulateDiskFlag(t *testing.T) {
	if args := os.Getenv("HSQD_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"hsqd"}, strings.Fields(args)...)
		main() // exits
	}
	hsqd := func(profile string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSimulateDiskFlag$")
		cmd.Env = append(os.Environ(), "HSQD_MAIN_ARGS=-backend mem -addr 127.0.0.1:0 -simulate-disk "+profile)
		return cmd
	}

	out, err := hsqd("floppy").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || !strings.Contains(string(out), `hsq: unknown disk profile "floppy"`) {
		t.Fatalf("-simulate-disk floppy: %v, want a start-up failure naming the profile:\n%s", err, out)
	}

	for _, profile := range []string{"ssd", "hdd"} {
		cmd := hsqd(profile)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		lines := bufio.NewScanner(stderr)
		for lines.Scan() && !strings.Contains(lines.Text(), "hsqd: serving on") {
			t.Log(lines.Text())
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, stderr) //nolint:errcheck // drained so Wait can return
		if err := cmd.Wait(); err != nil {
			t.Fatalf("-simulate-disk %s: %v, want a clean start and shutdown", profile, err)
		}
	}
}
