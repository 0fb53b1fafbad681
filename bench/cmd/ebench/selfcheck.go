package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"entityid/bench/plan"
)

// selfCheckRuns is the size of each of the two sets of runs.
const selfCheckRuns = 5

// verdict is the comparison of one (workload, metric) pair across the
// two sets.
type verdict struct {
	workload, metric string
	a, b             []float64
	bound            float64
}

// diff is how far the two medians are apart, as a share of the first.
func (v verdict) diff() float64 {
	ma, mb := median(v.a), median(v.b)
	if ma == 0 {
		return math.Inf(1)
	}
	return math.Abs(mb-ma) / math.Abs(ma)
}

func (v verdict) agrees() bool { return v.diff() <= v.bound }

// loadBounds reads each end-to-end metric's bound from BENCHMARK.json.
func loadBounds(root string) (map[string]float64, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bm struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range bm.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// selfCheck runs two interleaved sets of selfCheckRuns runs per
// workload on the same build — set A takes the even turns, set B the
// odd ones, each turn its own seed — and checks that the two medians of
// every end-to-end metric agree within the metric's bound: the
// agreement any later comparison of two commits relies on.
func selfCheck(cfg runConfig, root string, wls []*plan.Workload) error {
	bounds, err := loadBounds(root)
	if err != nil {
		return err
	}
	sets := [2]map[string][]float64{{}, {}}
	for turn := 0; turn < 2*selfCheckRuns; turn++ {
		c := cfg
		c.seed = cfg.seed + int64(turn)
		for _, wl := range wls {
			m, err := run(c, wl)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			if len(m.gate) > 0 || m.tally.failed > 0 {
				return fmt.Errorf("%s: seed %d is incorrect: %v, %d operations failed", wl.Name, c.seed, m.gate, m.tally.failed)
			}
			for name, v := range endToEnd(m) {
				key := wl.Name + "\x1f" + name
				sets[turn%2][key] = append(sets[turn%2][key], v)
			}
			fmt.Fprintf(os.Stderr, "self-check: set %c run %d of %d, %s done\n", 'A'+turn%2, turn/2+1, selfCheckRuns, wl.Name)
		}
	}
	fmt.Printf("%-12s %-26s %12s %12s %12s %12s %12s %12s %7s %6s\n",
		"workload", "metric", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3", "diff", "bound")
	disagree := 0
	for _, wl := range wls {
		for _, d := range endToEndDefs {
			key := wl.Name + "\x1f" + d.name
			v := verdict{wl.Name, d.name, sets[0][key], sets[1][key], bounds[d.name]}
			aq1, aq3 := quartiles(v.a)
			bq1, bq3 := quartiles(v.b)
			mark := ""
			if !v.agrees() {
				mark = "  DISAGREE"
				disagree++
			}
			fmt.Printf("%-12s %-26s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %6.1f%% %5.0f%%%s\n",
				v.workload, v.metric, aq1, median(v.a), aq3, bq1, median(v.b), bq3, 100*v.diff(), 100*v.bound, mark)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("self-check: %d (workload, metric) pairs disagree beyond their bound", disagree)
	}
	return nil
}
