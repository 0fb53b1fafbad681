package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// result is the last line a run prints: the contract's four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is echoed before the results, so a number can be traced
// to the box and the sizes that produced it.
type environment struct {
	NProc      int      `json:"nproc"`
	Conns      int      `json:"connections"`
	GoVersion  string   `json:"go_version"`
	Kernel     string   `json:"kernel"`
	Filesystem string   `json:"data_dir_filesystem"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Workload   string   `json:"workload"`
	Flags      []string `json:"daemon_flags"`
	Entities   int      `json:"entities"`
	Tuples     int      `json:"tuples"`
	SetupLines int      `json:"tuples_in_setup"`
	WindowS    float64  `json:"window_s"`
	Input      string   `json:"input_digest"`
	Stats      hubStats `json:"stats"`
	Partition  string   `json:"partition_digest"`
	WallS      float64  `json:"wall_s"`
	BoxSpeed   float64  `json:"box_speed"` // mean reading, as a share of the reference box
	// The timed end-to-end metrics before scaling to reference seconds.
	WallClock map[string]float64 `json:"wall_clock"`
	Gate      []string           `json:"gate_failures"`
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// fsType names the filesystem holding dir, as /proc/mounts knows it.
func fsType(dir string) string {
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return runtime.Version()
	}
	return strings.TrimSpace(string(out))
}

func describe(cfg runConfig, m *measured) environment {
	return environment{
		NProc: m.nproc, Conns: cfg.conns, GoVersion: goVersion(), Kernel: kernelRelease(),
		Filesystem: fsType(cfg.tmp), Seed: cfg.seed, Seconds: cfg.seconds, Workload: m.wl.Name,
		Flags: m.wl.Flags(), Entities: m.entities,
		Tuples: m.tuples, SetupLines: m.setupLines, WindowS: m.window.Seconds(),
		Input: m.input, Stats: m.stats, Partition: m.part.Digest, WallS: m.wall.Seconds(), Gate: m.gate,
		BoxSpeed: m.box.mean(), WallClock: wallClock(m),
	}
}

// printTable writes metrics for people: one per line, by name, with unit.
func printTable(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("-- %s\n", title)
	for _, n := range names {
		fmt.Printf("%-38s %16.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
