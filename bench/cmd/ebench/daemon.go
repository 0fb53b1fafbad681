package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running entityidd: its own process group, killed on
// every exit path, stderr (the access log) to /dev/null.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	start time.Time     // exec time
	done  chan struct{} // closed once the process has been reaped
}

// live is what must not outlive this process: running daemons and
// their data directories. The normal paths kill and remove their own;
// the signal handler sweeps whatever is left.
var live struct {
	sync.Mutex
	daemons map[*daemon]bool
	dirs    map[string]bool
}

func track(d *daemon, dir string, on bool) {
	live.Lock()
	defer live.Unlock()
	if live.daemons == nil {
		live.daemons, live.dirs = map[*daemon]bool{}, map[string]bool{}
	}
	if d != nil {
		if on {
			live.daemons[d] = true
		} else {
			delete(live.daemons, d)
		}
	}
	if dir != "" {
		if on {
			live.dirs[dir] = true
		} else {
			delete(live.dirs, dir)
		}
	}
}

// sweep kills every tracked daemon and removes every tracked directory.
func sweep() {
	live.Lock()
	defer live.Unlock()
	for d := range live.daemons {
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
		<-d.done
	}
	for dir := range live.dirs {
		_ = os.RemoveAll(dir) // best effort on the way out
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// scrubbedEnv is the driver's environment without the ENTITYID_*
// variables the daemon falls back to: every setting is a flag.
func scrubbedEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "ENTITYID_") {
			env = append(env, kv)
		}
	}
	return env
}

// startDaemon execs the daemon on a fresh port over dataDir. It does
// not wait for readiness; see waitReady.
func startDaemon(bin, dataDir string, flags []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-data-dir", dataDir}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Env = scrubbedEnv()
	// Own process group, so kill reaches anything the daemon might
	// start; Pdeathsig covers the driver itself being killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, addr: addr, start: time.Now(), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	go func() {
		_ = cmd.Wait() // "signal: killed" is the expected outcome
		close(d.done)
	}()
	track(d, "", true)
	return d, nil
}

// kill sends SIGKILL to the daemon's process group and reaps it.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	<-d.done
	track(d, "", false)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitReady polls until /readyz answers 200 and returns the time since
// exec. The daemon listens only once recovery has finished, so with
// want >= 0 a ready daemon whose /v1/stats does not report want tuples
// has lost or invented writes: that is an error, not a reason to wait.
func (d *daemon) waitReady(want int, timeout time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return 0, fmt.Errorf("daemon exited before it was ready")
		default:
		}
		ready, err := d.probe(want, deadline)
		if err != nil {
			return 0, err
		}
		if ready {
			return time.Since(d.start), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("daemon not ready within %v", timeout)
}

func (d *daemon) probe(want int, deadline time.Time) (bool, error) {
	c, err := dial(d.addr, 100*time.Millisecond)
	if err != nil {
		return false, nil
	}
	defer c.close()
	_ = c.c.SetDeadline(deadline) // a failure shows as an error on the next call
	status, _, err := c.do(renderGet("/readyz"), nil)
	if err != nil || status != 200 {
		return false, nil
	}
	if want < 0 {
		return true, nil
	}
	st, err := fetchStats(c)
	if err != nil {
		return false, err
	}
	if st.Tuples != want {
		return false, fmt.Errorf("daemon ready with %d tuples, %d were acknowledged", st.Tuples, want)
	}
	return true, nil
}

// hubStats is the body of GET /v1/stats.
type hubStats struct {
	Sources  int `json:"sources"`
	Pairs    int `json:"pairs"`
	Tuples   int `json:"tuples"`
	Matches  int `json:"matches"`
	Clusters int `json:"clusters"`
}

func fetchStats(c *conn) (hubStats, error) {
	var st hubStats
	status, body, err := c.do(renderGet("/v1/stats"), nil)
	if err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	if status != 200 {
		return st, fmt.Errorf("GET /v1/stats: status %d", status)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return st, nil
}

// procSample is what /proc says about the daemon at one instant.
type procSample struct {
	cpu        float64 // utime+stime, seconds
	hwmKB      float64 // VmHWM
	rssKB      float64 // VmRSS
	writeBytes float64 // /proc/pid/io write_bytes (bytes sent to the block layer)
}

const clkTck = 100.0 // USER_HZ; fixed at 100 on Linux

func sampleProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	s.cpu = (ut + st) / clkTck
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	s.hwmKB = procField(status, "VmHWM:")
	s.rssKB = procField(status, "VmRSS:")
	// /proc/pid/io can be unreadable in a sandbox; the metric built on
	// it is then dropped, not the run.
	if io, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid)); err == nil {
		s.writeBytes = procField(io, "write_bytes:")
	} else {
		s.writeBytes = -1
	}
	return s, nil
}

// procField returns the number following key in a "key: value [unit]"
// file of /proc.
func procField(b []byte, key string) float64 {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// selfCPU is the driver's own CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// idleWindow is how long the daemon must have used no CPU to count as
// idle, in a run of the nominal length; realMain scales it with
// --seconds like every other window. /proc counts CPU in ticks of
// 10 ms, so the floor is a few of those.
var idleWindow = 100 * time.Millisecond

// waitIdle returns once the daemon has used no CPU for a whole
// idleWindow, so that neither a phase nor a reading of the box's speed
// starts under the previous phase's background work (the snapshot
// writer runs on after the last ack).
func (d *daemon) waitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	prev, err := sampleProc(d.pid())
	if err != nil {
		return err
	}
	for time.Now().Before(deadline) {
		time.Sleep(idleWindow)
		cur, err := sampleProc(d.pid())
		if err != nil {
			return err
		}
		if cur.cpu == prev.cpu {
			return nil
		}
		prev = cur
	}
	return fmt.Errorf("daemon still busy after %v", timeout)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
