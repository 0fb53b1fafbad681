package main

// The renderer (render.go) is held to the form it replaced: the
// sorted-key map rendering below, encoded by encoding/json, is the
// reference, and every line the new writer produces — acks, refused
// insert lines, point reads, enumeration lines and the next_cursor and
// terminal lines that end a stream — must equal it byte for byte.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"entityid"
	"entityid/internal/hub"
	"entityid/internal/value"
)

// valueToJSON renders a typed value as a JSON scalar (reference form).
func valueToJSON(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.IntVal()
	case value.KindFloat:
		return v.FloatVal()
	case value.KindBool:
		return v.BoolVal()
	default:
		return v.Str()
	}
}

func membersJSON(ms []entityid.ClusterMember) []map[string]any {
	out := make([]map[string]any, len(ms))
	for i, m := range ms {
		tuple := make([]any, len(m.Tuple()))
		for j, v := range m.Tuple() {
			tuple[j] = valueToJSON(v)
		}
		out[i] = map[string]any{"source": m.Source, "index": m.Index, "tuple": tuple}
	}
	return out
}

// clusterJSON renders a cluster, optionally with its merged record
// (reference form).
func (s *server) clusterJSON(cl entityid.EntityCluster, merge string) map[string]any {
	out := map[string]any{"id": cl.ID, "members": membersJSON(cl.Members)}
	if merge == "" {
		return out
	}
	strategy, ok := mergeStrategies[merge]
	if !ok {
		out["merge_error"] = fmt.Sprintf("unknown strategy %q", merge)
		return out
	}
	me, err := s.hub.Merged(cl, strategy)
	if err != nil {
		out["merge_error"] = err.Error()
		return out
	}
	vals := map[string]any{}
	for k, v := range me.Values {
		vals[k] = valueToJSON(v)
	}
	out["merged"] = vals
	if len(me.Conflicts) > 0 {
		out["conflicts"] = me.Conflicts
	}
	return out
}

// ackJSON is the reference form of an ok ack line.
func (s *server) ackJSON(rec *entityid.HubReceipt) map[string]any {
	return map[string]any{
		"ok":      true,
		"index":   rec.Index,
		"matched": membersJSON(rec.Matched),
		"cluster": s.clusterJSON(rec.Cluster, ""),
	}
}

// refLine encodes v the way the handlers used to: one json.Encoder line.
func refLine(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("reference encoding failed: %v", err)
	}
	return buf.Bytes()
}

// renderKinds is the five-attribute shape of the render hub's sources;
// renderHub links two of them so that Merged has something to resolve.
// The integrated names carry characters the key escaper must handle.
var renderKinds = []value.Kind{value.KindString, value.KindInt, value.KindFloat, value.KindBool, value.KindString}

func renderHub(t testing.TB) *server {
	t.Helper()
	srv := newServer()
	srv.logf = func(string, ...any) {}
	for _, name := range []string{"a", "b"} {
		code, out := do(t, srv, "POST", "/v1/sources", `{"name":"`+name+`","attrs":[
			{"name":"s"},{"name":"i","kind":"int"},{"name":"f","kind":"float"},{"name":"b","kind":"bool"},{"name":"t"}],"key":["s"]}`)
		if code != 201 {
			t.Fatalf("source %s: %d %v", name, code, out)
		}
	}
	code, out := do(t, srv, "POST", "/v1/links", `{"left":"a","right":"b","extkey":["s"],"attrs":[
		{"name":"s","left":"s","right":"s"},{"name":"i <&> \"n\"","left":"i","right":"i"},
		{"name":"f\u2028","left":"f","right":"f"},{"name":"b\\","left":"b","right":"b"},
		{"name":"tä","left":"t","right":"t"}]}`)
	if code != 201 {
		t.Fatalf("link: %d %v", code, out)
	}
	return srv
}

// nastyStrings is what a string value, source name or cluster ID can
// hold that an escaper can get wrong.
var nastyStrings = []string{
	"", "plain", `"`, `\`, `a"b\c`, "\x00", "\x01\x02\x1f", "\b\f\n\r\t", "\x7f",
	"<script>&amp;</script>", "\u2028", "\u2029", "x\u2028y\u2029z", "é", "日本語", "😀",
	"\xff", "\xc3", "a\xc3(b", "\xed\xa0\x80", "\xf0\x9f\x98", "\u00a0\u0085",
}

var nastyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 3, 1e6, 123456789, 0.1, -2.5,
	1e21, 1e20, 9.999999999999999e20, -1e21, 1e-6, 1e-7, 9.99e-7, -1e-7, 1.5e-9, 1e-10, 1e100, 1e-100,
	math.MaxFloat64, math.SmallestNonzeroFloat64, float64(1 << 53), math.Pi,
}

var nastyInts = []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, 1 << 53, -(1 << 53)}

func randString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.Intn(4); n >= 0; n-- {
		b.WriteString(nastyStrings[r.Intn(len(nastyStrings))])
	}
	return b.String()
}

// randValue draws a value of kind k (NULL one time in six); floats are
// finite — non-finite ones have their own test.
func randValue(r *rand.Rand, k value.Kind) value.Value {
	if r.Intn(6) == 0 {
		return value.Null
	}
	switch k {
	case value.KindInt:
		if r.Intn(2) == 0 {
			return value.Int(nastyInts[r.Intn(len(nastyInts))])
		}
		return value.Int(int64(r.Uint64()))
	case value.KindFloat:
		if r.Intn(2) == 0 {
			return value.Float(nastyFloats[r.Intn(len(nastyFloats))])
		}
		for {
			if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return value.Float(f)
			}
		}
	case value.KindBool:
		return value.Bool(r.Intn(2) == 0)
	default:
		return value.String(randString(r))
	}
}

// randMember draws a member. A mergeable one names a source of the
// render hub and has its shape; any other has an arbitrary name, arity
// and kinds (and makes Merged fail, which is the merge_error case).
func randMember(r *rand.Rand, mergeable bool) entityid.ClusterMember {
	index := r.Intn(1 << 20)
	if r.Intn(4) == 0 {
		index = []int{0, 1, math.MaxInt32, math.MaxInt64}[r.Intn(4)]
	}
	var tuple entityid.Tuple
	if mergeable {
		for _, k := range renderKinds {
			tuple = append(tuple, randValue(r, k))
		}
		return hub.MemberOf([]string{"a", "b"}[r.Intn(2)], index, tuple)
	}
	source := randString(r)
	for n := r.Intn(5); n > 0; n-- {
		tuple = append(tuple, randValue(r, renderKinds[r.Intn(len(renderKinds))]))
	}
	return hub.MemberOf(source, index, tuple)
}

func randCluster(r *rand.Rand) entityid.EntityCluster {
	cl := entityid.EntityCluster{ID: randString(r) + "/" + fmt.Sprint(r.Intn(100))}
	mergeable := r.Intn(3) > 0
	for n := 1 + r.Intn(4); n > 0; n-- {
		cl.Members = append(cl.Members, randMember(r, mergeable))
	}
	return cl
}

// checkRender compares every rendering of one cluster — bare, under each
// merge strategy and an unknown one, and as the cluster of an ack — with
// the reference.
func checkRender(t *testing.T, srv *server, cl entityid.EntityCluster, matched []entityid.ClusterMember) {
	t.Helper()
	for _, merge := range []string{"", "coalesce", "left", "right", "strict", `no "such" <strategy>`} {
		want := refLine(t, srv.clusterJSON(cl, merge))
		got := append(srv.appendCluster(nil, cl, merge), '\n')
		if !bytes.Equal(got, want) {
			t.Fatalf("cluster line (merge=%q) differs from the reference:\n got %s\nwant %s", merge, got, want)
		}
	}
	rec := &entityid.HubReceipt{Source: cl.Members[0].Source, Index: cl.Members[0].Index, Matched: matched, Cluster: cl}
	want := refLine(t, srv.ackJSON(rec))
	if got := srv.appendAck(nil, rec); !bytes.Equal(got, want) {
		t.Fatalf("ack line differs from the reference:\n got %s\nwant %s", got, want)
	}
}

// checkMessageLines compares the three lines that carry one message —
// a refused insert line in place and terminal, a page's next_cursor, a
// broken scan's terminal line — with the reference maps the handlers
// used to encode.
func checkMessageLines(t *testing.T, msg string) {
	t.Helper()
	err := errors.New(msg)
	for _, c := range []struct {
		name string
		got  []byte
		ref  map[string]any
	}{
		{"refused insert line", appendErrorLine(nil, err, false), map[string]any{"ok": false, "error": msg}},
		{"terminal insert line", appendErrorLine(nil, err, true), map[string]any{"ok": false, "error": msg, "terminal": true}},
		{"next_cursor line", appendNextCursor(nil, msg), map[string]any{"next_cursor": msg}},
		{"terminal scan line", appendScanError(nil, err), map[string]any{"error": msg, "terminal": true}},
	} {
		if want := refLine(t, c.ref); !bytes.Equal(c.got, want) {
			t.Fatalf("%s differs from the reference:\n got %s\nwant %s", c.name, c.got, want)
		}
	}
}

// TestRenderMatchesReference is the property test: random clusters and
// receipts over every value kind, every string an escaper can get wrong,
// the float forms encoding/json switches between, int64 extremes, NULL,
// an empty matched list, every merge strategy, conflicts and
// merge_error; and the message lines over the same strings.
func TestRenderMatchesReference(t *testing.T) {
	srv := renderHub(t)
	r := rand.New(rand.NewSource(20))
	seen := map[string]bool{}
	for i := 0; i < 3000; i++ {
		cl := randCluster(r)
		var matched []entityid.ClusterMember
		for n := r.Intn(3); n > 0; n-- {
			matched = append(matched, randMember(r, r.Intn(2) == 0))
		}
		checkRender(t, srv, cl, matched)
		checkMessageLines(t, randString(r))
		for _, merge := range []string{"coalesce", "strict"} {
			for k := range srv.clusterJSON(cl, merge) {
				seen[k] = true
			}
		}
	}
	// The generator must actually reach every key the renderer can write.
	for _, k := range []string{"id", "members", "merged", "conflicts", "merge_error"} {
		if !seen[k] {
			t.Errorf("no generated cluster rendered %q", k)
		}
	}
	// Every listed string and number on its own, so a failure names it.
	for _, s := range nastyStrings {
		if got, want := value.AppendJSONString(nil, s), bytes.TrimSuffix(refLine(t, s), []byte("\n")); !bytes.Equal(got, want) {
			t.Errorf("AppendJSONString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
	for _, f := range nastyFloats {
		if got, want := value.AppendJSON(nil, value.Float(f)), bytes.TrimSuffix(refLine(t, f), []byte("\n")); !bytes.Equal(got, want) {
			t.Errorf("AppendJSON(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
}

// TestRenderNonFiniteFloat pins the one place the renderer departs from
// the reference, which has no bytes to compare: encoding/json refuses
// NaN and ±Inf (the old handlers then dropped the whole line — an ack
// silently lost, an empty 200 for a point read). They render as the
// strings the tuple codec parses back into the same float.
func TestRenderNonFiniteFloat(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(valueToJSON(value.Float(f))); err == nil {
			t.Fatalf("reference encodes %v: compare it instead", f)
		}
		got := value.AppendJSON(nil, value.Float(f))
		var s string
		if err := json.Unmarshal(got, &s); err != nil {
			t.Fatalf("%v rendered as %s: not a JSON string: %v", f, got, err)
		}
		back, _, err := value.ParseJSON(got, value.KindFloat)
		if err != nil {
			t.Fatalf("%v rendered as %s, which the tuple codec rejects: %v", f, got, err)
		}
		if b := back.FloatVal(); b != f && !(math.IsNaN(b) && math.IsNaN(f)) {
			t.Fatalf("%v rendered as %s, read back as %v", f, got, b)
		}
	}
	// End to end: a NaN reaches the hub as a string, and its ack and its
	// cluster are served.
	srv := renderHub(t)
	_, acks := ndjson(t, srv, "POST", "/v1/insert", `{"source":"a","tuple":["nan",1,"NaN",true,"x"]}`)
	if len(acks) != 1 || acks[0]["ok"] != true {
		t.Fatalf("NaN insert acks: %v", acks)
	}
	code, cl := do(t, srv, "GET", "/v1/cluster?source=a&key=nan", "")
	if code != 200 || len(cl["members"].([]any)) != 1 {
		t.Fatalf("cluster holding a NaN: %d %v", code, cl)
	}
}

// FuzzClusterJSON holds the renderer to the reference on whatever the
// fuzzer finds: arbitrary bytes as ID, source name and string values,
// arbitrary ints and float bits, beside a member the render hub can
// merge.
func FuzzClusterJSON(f *testing.F) {
	for i, s := range nastyStrings {
		f.Add(s, nastyStrings[(i+1)%len(nastyStrings)], nastyInts[i%len(nastyInts)],
			math.Float64bits(nastyFloats[i%len(nastyFloats)]), uint8(i))
	}
	srv := renderHub(f)
	f.Fuzz(func(t *testing.T, s1, s2 string, n int64, fbits uint64, shape uint8) {
		fl := math.Float64frombits(fbits)
		if math.IsNaN(fl) || math.IsInf(fl, 0) {
			t.Skip("non-finite floats have no reference bytes (TestRenderNonFiniteFloat)")
		}
		vals := entityid.Tuple{value.String(s1), value.Int(n), value.Float(fl), value.Bool(shape&1 == 0), value.String(s2)}
		other := entityid.Tuple{value.String(s2), value.Int(-n), value.Float(-fl), value.Bool(shape&2 == 0), value.Null}
		cl := entityid.EntityCluster{ID: s1, Members: []entityid.ClusterMember{hub.MemberOf("a", int(n), vals)}}
		switch shape >> 2 % 3 {
		case 1: // two mergeable members that may conflict
			cl.Members = append(cl.Members, hub.MemberOf("b", int(shape), other))
		case 2: // a member of no source the hub knows ("a" and "b"): merge_error
			cl.Members = append(cl.Members, hub.MemberOf("?"+s2, int(shape), other[:int(shape>>4)%6]))
		}
		checkRender(t, srv, cl, cl.Members[1:])
		checkMessageLines(t, s1)
	})
}
