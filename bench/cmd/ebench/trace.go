package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"entityid/bench/plan"
)

// traceTimeout bounds the traced run; a hung one loses its metrics,
// not the run.
const traceTimeout = 90 * time.Second

// tracedRun execs the separate in-process traced run, at half the
// socket run's size (it passes over the operations twice, with and
// without its decorators), and returns its metrics. ebench never links the program's packages: etrace does, and
// when it is missing or fails, its metrics are missing and the run
// still stands.
func tracedRun(bin, tmp string, wl *plan.Workload, seed int64, seconds int) (map[string]float64, error) {
	if bin == "" {
		return nil, fmt.Errorf("etrace was not built")
	}
	ctx, cancel := context.WithTimeout(context.Background(), traceTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(max(1, seconds/2)), "-tmp", tmp)
	cmd.Env = scrubbedEnv()
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("etrace: %w", err)
	}
	// The metrics are the last line; span and phase notes come before.
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	var res struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("etrace: last line is not its result: %w", err)
	}
	return res.Metrics, nil
}
