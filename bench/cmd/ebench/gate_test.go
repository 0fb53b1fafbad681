package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"entityid/bench/gen"
)

// ackServer is a stand-in daemon whose /v1/insert acknowledges every
// line, except that corrupt, when set, rewrites the ack of one line.
func ackServer(t *testing.T, corrupt func(i int, ack string) string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sc := bufio.NewScanner(r.Body)
		var acks []string
		for i := 0; sc.Scan(); i++ {
			ack := fmt.Sprintf(`{"cluster":{"id":"c%d"},"index":%d,"matched":[],"ok":true}`, i, i)
			if corrupt != nil {
				ack = corrupt(i, ack)
			}
			acks = append(acks, ack)
		}
		for _, a := range acks {
			if a != "" {
				fmt.Fprintln(w, a)
			}
		}
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestCorruptedAckStreamFailsTheRun(t *testing.T) {
	w := gen.Generate(1, 300)
	cases := map[string]func(i int, ack string) string{
		"refused line": func(i int, ack string) string {
			if i == 7 {
				return `{"error":"uniqueness","ok":false}`
			}
			return ack
		},
		"garbled line": func(i int, ack string) string {
			if i == 7 {
				return ack[:len(ack)/2]
			}
			return ack
		},
		"missing ack": func(i int, ack string) string {
			if i == 7 {
				return ""
			}
			return ack
		},
	}
	for name, corrupt := range cases {
		res, err := streamIngest(ackServer(t, corrupt), w.Lines, 10*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.acked != len(w.Lines)-1 || res.failed != 1 {
			t.Errorf("%s: %d acked and %d failed of %d, want exactly one failure", name, res.acked, res.failed, len(w.Lines))
		}
		if bad := gate(gateInput{sent: len(w.Lines), acked: res.acked}); len(bad) == 0 {
			t.Errorf("%s: the gate passed a run with a line that was not acknowledged", name)
		}
	}
	res, err := streamIngest(ackServer(t, nil), w.Lines, 10*time.Second)
	if err != nil || res.acked != len(w.Lines) || res.failed != 0 {
		t.Errorf("clean stream: %d acked, %d failed, err %v", res.acked, res.failed, err)
	}
	live, err := liveInserts(ackServer(t, cases["refused line"]), w.Lines[:3], 10*time.Second)
	if err != nil || live.acked != 3 {
		t.Errorf("single-line posts: %d acked, err %v", live.acked, err)
	}
}

// cleanGate is a gate input that passes.
func cleanGate() gateInput {
	p := partition{Digest: "d0", Clusters: 40, Tuples: 100, Pairs: 70}
	return gateInput{
		sent: 100, acked: 100,
		stats:  hubStats{Sources: 4, Pairs: 6, Tuples: 100, Matches: 70, Clusters: 40},
		before: p, after: p, inputDigest: "in",
		golden: &golden{InputDigest: "in", Tuples: 100, Clusters: 40, Matches: 70, Digest: "d0"},
	}
}

func TestGate(t *testing.T) {
	if bad := gate(cleanGate()); len(bad) != 0 {
		t.Fatalf("a clean run fails the gate: %v", bad)
	}
	breaks := map[string]func(*gateInput){
		"wrong tuple count in /v1/stats":     func(g *gateInput) { g.stats.Tuples = 99 },
		"wrong tuple count in /v1/clusters":  func(g *gateInput) { g.before.Tuples = 101 },
		"cluster count disagrees with stats": func(g *gateInput) { g.before.Clusters = 41 },
		"digest mismatch after restart":      func(g *gateInput) { g.after.Digest = "d1" },
		"digest differs from golden":         func(g *gateInput) { g.golden.Digest = "d9" },
		"stats differ from golden":           func(g *gateInput) { g.golden.Matches = 71 },
		"inputs differ from golden":          func(g *gateInput) { g.inputDigest = "other" },
		"a line was not acknowledged":        func(g *gateInput) { g.acked = 99; g.stats.Tuples = 99; g.before.Tuples = 99 },
	}
	for name, br := range breaks {
		g := cleanGate()
		br(&g)
		if bad := gate(g); len(bad) == 0 {
			t.Errorf("%s: the gate passed", name)
		}
	}
}

func TestSoundnessAndUniqueness(t *testing.T) {
	w := gen.Generate(1, 300)
	tr := newTruth(w)
	member := func(i int) string {
		tu := w.Tuples[i]
		return fmt.Sprintf(`{"index":%d,"source":%q,"tuple":[%q,%q,%q,null]}`, i, gen.SourceName(tu.Src), tu.Vals[0], tu.Vals[1], tu.Vals[2])
	}
	cluster := func(is ...int) []byte {
		ms := make([]string, len(is))
		for k, i := range is {
			ms[k] = member(i)
		}
		return []byte(`{"id":"x","members":[` + strings.Join(ms, ",") + `]}`)
	}
	// Two tuples of one entity in different sources, two entities, and
	// two tuples of one source.
	var same, other, sameSource = -1, -1, -1
	for i := 1; i < len(w.Tuples) && (same < 0 || other < 0 || sameSource < 0); i++ {
		switch a, b := w.Tuples[0], w.Tuples[i]; {
		case a.Entity == b.Entity && a.Src != b.Src && same < 0:
			same = i
		case a.Entity != b.Entity && a.Src != b.Src && other < 0:
			other = i
		case a.Src == b.Src && sameSource < 0:
			sameSource = i
		}
	}
	if same < 0 || other < 0 || sameSource < 0 {
		t.Fatal("the generated workload lacks a case this test needs")
	}
	if _, err := tr.check(cluster(0, same)); err != nil {
		t.Errorf("a sound cluster is rejected: %v", err)
	}
	if _, err := tr.check(cluster(0, other)); err == nil {
		t.Error("a cluster mixing two entities passes")
	}
	if _, err := tr.check(cluster(0, sameSource)); err == nil {
		t.Error("a cluster with two tuples of one source passes")
	}
	if err := tr.checkReply(w, other, cluster(0, same)); err == nil {
		t.Error("a reply that does not hold the tuple asked for passes")
	}
	body := append(append(cluster(0, other), '\n'), cluster(sameSource)...)
	p, err := tr.checkPartition(body)
	if err == nil || p.Unsound != 1 || p.Clusters != 2 || p.Tuples != 3 {
		t.Errorf("partition with one unsound cluster: %+v, err %v", p, err)
	}
	if _, err := tr.checkPartition(append(append(cluster(0), '\n'), cluster(0)...)); err == nil {
		t.Error("a tuple served in two clusters passes")
	}
	// The digest depends on the partition, not on the order served.
	a, _ := tr.checkPartition(append(append(cluster(0, same), '\n'), cluster(other)...))
	b, _ := tr.checkPartition(append(append(cluster(other), '\n'), cluster(same, 0)...))
	if a.Digest != b.Digest {
		t.Error("the digest depends on the order clusters and members are served in")
	}
	c, _ := tr.checkPartition(append(append(append(append(cluster(0), '\n'), cluster(same)...), '\n'), cluster(other)...))
	if c.Digest == a.Digest {
		t.Error("two different partitions have one digest")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) for these ten values.
	v := []float64{12.1, 9.7, 10.4, 11.9, 10.0, 10.8, 9.9, 11.2, 10.1, 10.6}
	q1, q3 := quartiles(v)
	if d1, d3 := q1-9.975, q3-11.375; d1*d1 > 1e-18 || d3*d3 > 1e-18 {
		t.Errorf("quartiles %v, %v; Python gives 9.975, 11.375", q1, q3)
	}
}
