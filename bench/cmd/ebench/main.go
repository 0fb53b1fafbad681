// Command ebench is the repository's end-to-end benchmark: it builds
// entityidd, drives it over a loopback socket through a fixed
// workload, checks what was served, and prints every metric by name.
// It imports nothing from the program it measures. See bench/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"entityid/bench/plan"
)

func main() {
	var (
		wlName  = flag.String("workload", "all", "workload to run: live_mixed, read_cold, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", plan.NominalSeconds, "measuring time of one run; sizes and windows scale with it")
		trace   = flag.Int("trace", -1, "0: print the end-to-end metrics; 1: print the per-layer metrics (adds the traced run); -1: both")
		verbose = flag.Bool("v", false, "log phases to stderr")
		check   = flag.Bool("selfcheck", false, "run two interleaved sets of runs on this build and check that their medians agree within each metric's bound")
	)
	flag.Parse()
	if err := realMain(*wlName, *seed, *seconds, *trace, *verbose, *check); err != nil {
		fmt.Fprintln(os.Stderr, "ebench:", err)
		os.Exit(1)
	}
}

func realMain(wlName string, seed int64, seconds, trace int, verbose, check bool) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bins, err := build(root, trace != 0 && !check)
	if err != nil {
		return err
	}
	// A signal must leave neither a daemon nor a data directory behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { <-sig; sweep(); os.Exit(130) }()

	idleWindow = max(30*time.Millisecond, idleWindow*time.Duration(seconds)/plan.NominalSeconds)
	tmp := filepath.Join(root, buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	cfg := runConfig{
		daemonBin: bins.daemon, golden: filepath.Join(root, "bench", "testdata", "golden.json"), tmp: tmp,
		seed: seed, seconds: seconds, conns: min(2, runtime.NumCPU()),
		logf: func(string, ...any) {},
	}
	if verbose {
		cfg.logf = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}
	var wls []*plan.Workload
	if wl := plan.Find(wlName); wl != nil {
		wls = []*plan.Workload{wl}
	} else if wlName == "all" {
		for i := range plan.Workloads {
			wls = append(wls, &plan.Workloads[i])
		}
	} else {
		return fmt.Errorf("unknown workload %q", wlName)
	}
	if check {
		return selfCheck(cfg, root, wls)
	}
	cfg.probe = trace != 0
	allCorrect := true
	for _, wl := range wls {
		m, err := run(cfg, wl)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		if err := printJSON(map[string]any{"env": describe(cfg, m)}); err != nil {
			return err
		}
		metrics := map[string]metric{}
		if trace != 1 {
			e2e := named(endToEndDefs, endToEnd(m))
			printTable(wl.Name+": end-to-end", e2e)
			for n, v := range e2e {
				metrics[n] = v
			}
		}
		if trace != 0 {
			traced, err := tracedRun(bins.etrace, tmp, wl, seed, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ebench: warning: no traced run, its metrics are missing: %v\n", err)
			}
			layers := named(perLayerDefs, perLayer(m, traced))
			printTable(wl.Name+": per layer", layers)
			for n, v := range layers {
				metrics[n] = v
			}
		}
		if m.clientShare() > 0.5 {
			fmt.Fprintln(os.Stderr, "ebench: warning: the driver used more than half the machine; it may be the bottleneck")
		}
		for _, g := range m.gate {
			fmt.Fprintf(os.Stderr, "ebench: %s: INCORRECT: %s\n", wl.Name, g)
		}
		correct := len(m.gate) == 0 && m.tally.failed == 0
		allCorrect = allCorrect && correct
		if err := printJSON(result{Correct: correct, Attempted: m.tally.attempted, Failed: m.tally.failed, Metrics: metrics}); err != nil {
			return err
		}
	}
	if !allCorrect {
		return fmt.Errorf("the correctness gate failed")
	}
	return nil
}
