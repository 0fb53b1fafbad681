// Package bench_test holds the benchmark's end-to-end smoke test; the
// benchmark itself lives in the packages below this directory.
package bench_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload in small through the real binaries —
// driver, daemon and traced run — and holds what they print against
// BENCHMARK.json: exactly the declared metrics, once, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon; skipped with -short")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	seen := map[string]bool{}
	for _, group := range [][]metricDecl{bm.EndToEnd, bm.PerLayer} {
		for _, d := range group {
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("BENCHMARK.json: metric name %q is malformed or used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	hasSetup := false
	for _, d := range bm.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("BENCHMARK.json: %s needs a bound in (0, 0.25]", d.Name)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json: no setup_s in seconds, lower is better")
	}

	ebench := filepath.Join(t.TempDir(), "ebench")
	if out, err := exec.Command("go", "build", "-o", ebench, "./cmd/ebench").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/ebench: %v\n%s", err, out)
	}
	for _, wl := range bm.Workloads {
		for trace, want := range [][]metricDecl{bm.EndToEnd, bm.PerLayer} {
			cmd := exec.Command(ebench, "--workload", wl.Name, "--seed", "5", "--seconds", "1", "--trace", strconv.Itoa(trace))
			cmd.Dir = root
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s --trace %d: %v\n%s", wl.Name, trace, err, stderr.Bytes())
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
			var res runResult
			dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s --trace %d: last line is not the result: %v\n%s", wl.Name, trace, err, lines[len(lines)-1])
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s --trace %d: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s --trace %d: %s is declared and not emitted\n%s", wl.Name, trace, d.Name, stderr.Bytes())
				case got.Unit != d.Unit:
					t.Errorf("%s --trace %d: %s emitted in %q, declared in %q", wl.Name, trace, d.Name, got.Unit, d.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				for name := range res.Metrics {
					declared := false
					for _, d := range want {
						declared = declared || d.Name == name
					}
					if !declared {
						t.Errorf("%s --trace %d: %s is emitted and not declared", wl.Name, trace, name)
					}
				}
			}
			if trace == 0 {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want above zero", wl.Name, name, m.Value)
					}
				}
			}
		}
	}
}
