package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// buildDir is where everything the benchmark writes goes: the built
// server binary, per-run work directories, and trace files. It sits in
// the checkout (the driver's CARGO_TARGET_DIR name) and is ignored by
// git.
const buildDir = ".bench_build"

// peakRSSMB reads VmHWM, the peak resident set size, of pid ("self"
// for this process) from /proc/<pid>/status, in MB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%s/status has no VmHWM", pid)
}

// stamp describes the machine and build a result was measured on.
func stamp(root string) map[string]interface{} {
	return map[string]interface{}{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(root),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitCommit is HEAD of the checkout, or "unknown" outside a git
// repository (the driver's checkout is not one).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// findRoot checks that the working directory is the root of a checkout
// of this module: the benchmark builds and starts cmd/wqe-serve from
// source there.
func findRoot() (string, error) {
	root, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, need := range []string{"go.mod", "BENCHMARK.json", "cmd/wqe-serve"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return "", fmt.Errorf("run from the root of the checkout: %w", err)
		}
	}
	return root, nil
}

// cleaner owns what must not outlive the benchmark: subprocesses and
// work directories. run is called on every exit path, including
// SIGINT/SIGTERM.
type cleaner struct {
	mu    sync.Mutex
	dirs  []string      // guarded by mu
	procs []*os.Process // guarded by mu
}

func (c *cleaner) addDir(dir string) {
	c.mu.Lock()
	c.dirs = append(c.dirs, dir)
	c.mu.Unlock()
}

func (c *cleaner) addProc(p *os.Process) {
	c.mu.Lock()
	c.procs = append(c.procs, p)
	c.mu.Unlock()
}

// run kills every registered process still alive and removes every
// registered directory. Killing an already-reaped process is harmless.
func (c *cleaner) run() {
	c.mu.Lock()
	procs, dirs := c.procs, c.dirs
	c.procs, c.dirs = nil, nil
	c.mu.Unlock()
	for _, p := range procs {
		_ = p.Kill() // already exited is fine
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d) // best effort on the way out
	}
}

// command builds a subprocess that dies with this process even when it
// is killed outright.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// traceFile is where a traced run's spans are written.
func traceFile(in *inputs) string {
	return filepath.Join(filepath.Dir(in.Dir), fmt.Sprintf("trace-%s-seed%d.json", in.Workload, in.Seed))
}
