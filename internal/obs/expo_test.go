package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Line grammar of the Prometheus text exposition format (0.0.4),
// restricted to what this package emits: HELP/TYPE comments and
// samples with optional label sets.
var (
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*\})? (\+Inf|-?[0-9].*)$`)
)

// CheckPrometheusText validates exposition output: every line matches
// the format grammar, every sample's family was announced by a TYPE
// comment, and every histogram's buckets are cumulative, end at +Inf,
// and agree with its _count. It returns the TYPE-announced families.
// Shared (via export_test-style reuse) with the entityidd conformance
// test through duplication of the regexes there.
func CheckPrometheusText(t *testing.T, text string) map[string]string {
	t.Helper()
	types := map[string]string{}   // family -> type
	lastCum := map[string]uint64{} // histogram family+labels -> last cumulative bucket
	counts := map[string]uint64{}  // histogram family+labels -> _count value
	if text == "" || !strings.HasSuffix(text, "\n") {
		t.Fatalf("exposition must end with a newline")
	}
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpRe.MatchString(line) {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if _, dup := types[m[1]]; dup {
				t.Fatalf("line %d: family %q typed twice", ln+1, m[1])
			}
			types[m[1]] = m[2]
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", ln+1, line)
			}
			name, labels, value := m[1], m[2], m[4]
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suffix)
				if base != name && types[base] == "histogram" {
					family = base
				}
			}
			if _, ok := types[family]; !ok {
				t.Fatalf("line %d: sample %q before its TYPE", ln+1, name)
			}
			if types[family] == "histogram" {
				key := family + labelsWithoutLe(labels)
				switch {
				case strings.HasSuffix(name, "_bucket"):
					v, err := strconv.ParseUint(value, 10, 64)
					if err != nil {
						t.Fatalf("line %d: bucket value %q", ln+1, value)
					}
					if v < lastCum[key] {
						t.Fatalf("line %d: bucket not cumulative: %d after %d", ln+1, v, lastCum[key])
					}
					lastCum[key] = v
					if !strings.Contains(labels, `le="`) {
						t.Fatalf("line %d: bucket without le label: %q", ln+1, line)
					}
				case strings.HasSuffix(name, "_count"):
					v, _ := strconv.ParseUint(value, 10, 64)
					counts[key] = v
				}
			}
		}
	}
	for key, c := range counts {
		if lastCum[key] != c {
			t.Fatalf("histogram %q: +Inf bucket %d != count %d", key, lastCum[key], c)
		}
	}
	return types
}

// labelsWithoutLe strips the le pair so bucket series and _count of
// one child share a key.
func labelsWithoutLe(labels string) string {
	if labels == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var keep []string
	for _, pair := range splitLabelPairs(inner) {
		if !strings.HasPrefix(pair, `le="`) {
			keep = append(keep, pair)
		}
	}
	if len(keep) == 0 {
		return ""
	}
	sort.Strings(keep)
	return "{" + strings.Join(keep, ",") + "}"
}

// splitLabelPairs splits k="v" pairs on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func TestPrometheusConformance(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_ops_total", "operations")
	c.Add(3)
	g := r.Gauge("app_inflight", "in flight")
	g.Set(-2)
	r.GaugeFunc("app_uptime_seconds", "uptime", func() float64 { return 12.5 })
	h := r.LatencyHistogram("app_latency_seconds", "op latency")
	h.Observe(500 * time.Microsecond)
	h.Observe(80 * time.Millisecond)
	h.Observe(3 * time.Minute) // beyond the largest finite bucket
	s := r.SizeHistogram("app_batch_size", "batch sizes")
	s.ObserveVal(17)
	v := r.CounterVec("app_requests_total", "requests", "route", "class")
	v.With("GET /v1/cluster", "2xx").Add(9)
	v.With(`we"ird\route`+"\n", "5xx").Inc()
	hv := r.LatencyHistogramVec("app_stage_seconds", "stage latency", "stage")
	hv.With("apply").Observe(time.Millisecond)
	hv.With("fold").Observe(2 * time.Millisecond)
	gv := r.SecondsGaugeVec("app_phase_seconds", "phase wall time", "phase")
	gv.With("fold").Set(int64(1500 * time.Microsecond))

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	types := CheckPrometheusText(t, text)
	want := map[string]string{
		"app_ops_total":       "counter",
		"app_inflight":        "gauge",
		"app_uptime_seconds":  "gauge",
		"app_latency_seconds": "histogram",
		"app_batch_size":      "histogram",
		"app_requests_total":  "counter",
		"app_stage_seconds":   "histogram",
		"app_phase_seconds":   "gauge",
	}
	for fam, typ := range want {
		if types[fam] != typ {
			t.Errorf("family %q: type %q, want %q", fam, types[fam], typ)
		}
	}
	for _, needle := range []string{
		`app_ops_total 3`,
		`app_inflight -2`,
		`app_uptime_seconds 12.5`,
		`app_requests_total{route="GET /v1/cluster",class="2xx"} 9`,
		`app_requests_total{route="we\"ird\\route\n",class="5xx"} 1`,
		`app_latency_seconds_count 3`,
		`app_batch_size_sum 17`,
		`app_stage_seconds_bucket{stage="apply",le="+Inf"} 1`,
		`app_phase_seconds{phase="fold"} 0.0015`,
	} {
		if !strings.Contains(text, needle+"\n") {
			t.Errorf("exposition missing %q\n%s", needle, text)
		}
	}
	// The 3-minute observation only shows up at +Inf, never in a
	// finite bucket of a latency histogram capped at ~67s.
	finiteMax := fmt.Sprintf(`app_latency_seconds_bucket{le="%s"} 2`, fmtFloat(h.bound(histBuckets-1)))
	if !strings.Contains(text, finiteMax+"\n") {
		t.Errorf("largest finite bucket wrong: want %q\n%s", finiteMax, text)
	}
}

func TestHistogramRenderConsistentUnderRace(t *testing.T) {
	r := NewRegistry()
	h := r.LatencyHistogram("h_seconds", "hist")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
	}()
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		CheckPrometheusText(t, sb.String())
	}
	<-done
}

func TestFmtFloat(t *testing.T) {
	if fmtFloat(math.Inf(1)) != "+Inf" {
		t.Fatalf("+Inf renders %q", fmtFloat(math.Inf(1)))
	}
	if fmtFloat(0.001) != "0.001" {
		t.Fatalf("0.001 renders %q", fmtFloat(0.001))
	}
}

func TestRenderDeterministicChildOrder(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", "vec", "k")
	for _, k := range []string{"zeta", "alpha", "mid"} {
		v.With(k).Inc()
	}
	var a, b strings.Builder
	r.WritePrometheus(&a)
	r.WritePrometheus(&b)
	if a.String() != b.String() {
		t.Fatal("two renders differ")
	}
	ia := strings.Index(a.String(), `k="alpha"`)
	iz := strings.Index(a.String(), `k="zeta"`)
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatal("children not sorted by label value")
	}
}
