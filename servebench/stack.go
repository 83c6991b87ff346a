package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one serving process started by the benchmark.
type child struct {
	name string
	cmd  *exec.Cmd
	addr string        // from the "listening on" line
	done chan struct{} // closed once Wait has returned
}

// supervisor owns every child process. Children run in their own
// process groups, get SIGKILL if the benchmark dies first, and are
// killed and reaped by stopAll on every exit path.
type supervisor struct {
	bin    string // directory holding attrserve and attrrouter
	logDir string

	mu       sync.Mutex
	children []*child
	groups   []int // every process group ever started
}

func newSupervisor(bin, logDir string) *supervisor {
	return &supervisor{bin: bin, logDir: logDir}
}

// start launches bin/name with args, then waits until it prints its
// "listening on <addr>" line. The child's output goes to a log file.
func (s *supervisor) start(name string, args ...string) (*child, error) {
	cmd := exec.Command(filepath.Join(s.bin, name), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(filepath.Join(s.logDir, fmt.Sprintf("%s-%d.log", name, time.Now().UnixNano())))
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		_ = logf.Close() // the start already failed
		return nil, err
	}
	s.mu.Lock()
	err = cmd.Start()
	if err == nil {
		s.groups = append(s.groups, cmd.Process.Pid)
	}
	s.mu.Unlock()
	if err != nil {
		_ = logf.Close() // the start already failed
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, done: make(chan struct{})}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()

	addr := make(chan string, 1)
	go func() {
		// Copy the child's stdout to its log, picking out the address.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, rest, ok := strings.Cut(line, " listening on "); ok {
				if a, _, _ := strings.Cut(rest, " "); a != "" {
					select {
					case addr <- a:
					default:
					}
				}
			}
		}
		_ = cmd.Wait()   // a killed child exits non-zero by design
		_ = logf.Close() // a diagnostic log; a lost tail changes no result
		close(c.done)
	}()
	select {
	case c.addr = <-addr:
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("%s exited before listening (see %s)", name, logf.Name())
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("%s did not report an address within 30s", name)
	}
}

// stopAll kills every live child's process group and waits for each
// child to be reaped.
func (s *supervisor) stopAll() error {
	s.mu.Lock()
	kids := s.children
	s.children = nil
	s.mu.Unlock()
	var errs []error
	for _, c := range kids {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // ESRCH: already gone
	}
	for _, c := range kids {
		select {
		case <-c.done:
		case <-time.After(10 * time.Second):
			errs = append(errs, fmt.Errorf("%s (pid %d) was not reaped within 10s", c.name, c.cmd.Process.Pid))
		}
	}
	return errors.Join(errs...)
}

// leftovers lists processes still alive in any group the benchmark
// started, or whose parent is the benchmark itself.
func (s *supervisor) leftovers() []int {
	s.mu.Lock()
	groups := make(map[int]bool, len(s.groups))
	for _, g := range s.groups {
		groups[g] = true
	}
	s.mu.Unlock()
	self := os.Getpid()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == self {
			continue
		}
		f, err := procStat(pid)
		if err != nil || f.state == "Z" && f.ppid != self {
			continue
		}
		if groups[f.pgrp] || f.ppid == self {
			out = append(out, pid)
		}
	}
	return out
}

// statFields are the /proc/<pid>/stat fields the benchmark reads.
type statFields struct {
	state      string
	ppid, pgrp int
}

func procStat(pid int) (statFields, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return statFields{}, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return statFields{}, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 3 {
		return statFields{}, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ppid, _ := strconv.Atoi(f[1])
	pgrp, _ := strconv.Atoi(f[2])
	return statFields{state: f[0], ppid: ppid, pgrp: pgrp}, nil
}

// cpuByProcess reads the CPU seconds each child has used so far, at
// nanosecond resolution: the sum of its threads' run time from
// /proc/<pid>/task/<tid>/schedstat.
func cpuByProcess(kids []*child) ([]float64, error) {
	out := make([]float64, len(kids))
	for i, c := range kids {
		dir := fmt.Sprintf("/proc/%d/task", c.cmd.Process.Pid)
		tasks, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var ns uint64
		for _, t := range tasks {
			raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
			if err != nil {
				continue // the thread exited between the listing and the read
			}
			f := strings.Fields(string(raw))
			if len(f) == 0 {
				return nil, fmt.Errorf("%s/%s/schedstat: empty", dir, t.Name())
			}
			v, err := strconv.ParseUint(f[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
			}
			ns += v
		}
		out[i] = float64(ns) / 1e9
	}
	return out, nil
}

// peakRSSMB sums VmHWM (peak resident set) over the given children.
func peakRSSMB(kids []*child) (float64, error) {
	var kb uint64
	for _, c := range kids {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("%s VmHWM: %w", c.name, err)
				}
				kb += v
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("%s: no VmHWM in /proc/%d/status", c.name, c.cmd.Process.Pid)
		}
	}
	return float64(kb) / 1024, nil
}
