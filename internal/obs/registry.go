// Registry: named metrics, bounded-cardinality labeled families, and
// the Prometheus text-format exposition every registered metric
// renders through.
package obs

import (
	"bufio"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// maxFamilyChildren bounds how many distinct label-value combinations
// one labeled family materialises. Past the cap, every new combination
// shares one overflow child whose label values all read "other" — a
// misbehaving client cannot grow the metric surface without bound.
const maxFamilyChildren = 64

// Registry holds named metrics in registration order. All methods are
// safe for concurrent use; registration panics on an invalid or
// duplicate name (programmer error, caught at init).
type Registry struct {
	mu      sync.Mutex
	metrics []renderer
	names   map[string]bool
}

// renderer is anything the registry can expose.
type renderer interface {
	render(w *bufio.Writer)
}

// Default is the process-wide registry every package-level metric in
// this repo registers into; entityidd serves it at /metrics.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// validName reports whether name fits the Prometheus metric/label name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally exclude ':',
// which none of ours use).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) register(name string, m renderer) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(name, g)
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// for values another component already tracks (in-flight requests,
// uptime). fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, &gaugeFunc{name: name, help: help, fn: fn})
}

type gaugeFunc struct {
	name, help string
	fn         func() float64
}

// LatencyHistogram registers a histogram with log-scale latency
// buckets from 1µs up, rendered in seconds.
func (r *Registry) LatencyHistogram(name, help string) *Histogram {
	h := &Histogram{name: name, help: help, base: 1000, seconds: true}
	r.register(name, h)
	return h
}

// SizeHistogram registers a histogram with log-scale buckets from 1
// up, for sizes and counts.
func (r *Registry) SizeHistogram(name, help string) *Histogram {
	h := &Histogram{name: name, help: help, base: 1, seconds: false}
	r.register(name, h)
	return h
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{family: newFamily(name, help, labels)}
	r.register(name, v)
	return v
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{family: newFamily(name, help, labels)}
	r.register(name, v)
	return v
}

// SecondsGaugeVec registers a labeled gauge family of durations: each
// child is Set in nanoseconds and renders in seconds.
func (r *Registry) SecondsGaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{family: newFamily(name, help, labels), seconds: true}
	r.register(name, v)
	return v
}

// LatencyHistogramVec registers a labeled latency-histogram family.
func (r *Registry) LatencyHistogramVec(name, help string, labels ...string) *HistogramVec {
	v := &HistogramVec{family: newFamily(name, help, labels), base: 1000, seconds: true}
	r.register(name, v)
	return v
}

// family is the shared child management of every labeled vec: a
// lock-free child lookup (sync.Map keyed by the joined label values)
// with a hard cardinality cap.
type family struct {
	name, help string
	labels     []string
	children   sync.Map // key string -> child (concrete per vec)
	nChildren  atomic.Int64
	overflowed atomic.Bool
}

func newFamily(name, help string, labels []string) family {
	for _, l := range labels {
		if !validName(l) || strings.Contains(l, ":") {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, name))
		}
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: labeled family %q needs at least one label", name))
	}
	return family{name: name, help: help, labels: labels}
}

// childKey joins label values; \x1f never appears in sane label values
// and collisions would only merge two children's counts.
func childKey(values []string) string { return strings.Join(values, "\x1f") }

// overflowValues is the label set every past-the-cap child collapses
// into.
func (f *family) overflowValues() []string {
	vals := make([]string, len(f.labels))
	for i := range vals {
		vals[i] = "other"
	}
	return vals
}

// lookup finds or creates the child for the given label values,
// clamping to the overflow child once the cardinality cap is hit.
// make constructs a new child for the (possibly clamped) values.
func (f *family) lookup(values []string, make func(values []string) any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q: %d label values for %d labels", f.name, len(values), len(f.labels)))
	}
	key := childKey(values)
	if c, ok := f.children.Load(key); ok {
		return c
	}
	if f.nChildren.Load() >= maxFamilyChildren {
		values = f.overflowValues()
		key = childKey(values)
		f.overflowed.Store(true)
		if c, ok := f.children.Load(key); ok {
			return c
		}
	}
	c, loaded := f.children.LoadOrStore(key, make(values))
	if !loaded {
		f.nChildren.Add(1)
	}
	return c
}

// sortedChildren returns the children ordered by key for deterministic
// exposition.
func (f *family) sortedChildren() []any {
	type kv struct {
		k string
		v any
	}
	var all []kv
	f.children.Range(func(k, v any) bool {
		all = append(all, kv{k.(string), v})
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	out := make([]any, len(all))
	for i, e := range all {
		out[i] = e.v
	}
	return out
}

// CounterVec is a labeled counter family.
type CounterVec struct{ family }

type counterChild struct {
	Counter
	labelStr string
}

// With returns the counter for the given label values, creating it on
// first use. Hot paths should cache the result.
func (v *CounterVec) With(values ...string) *Counter {
	c := v.lookup(values, func(vals []string) any {
		return &counterChild{labelStr: labelString(v.labels, vals)}
	})
	return &c.(*counterChild).Counter
}

// GaugeVec is a labeled gauge family; seconds marks one whose children
// hold nanoseconds and render in seconds.
type GaugeVec struct {
	family
	seconds bool
}

type gaugeChild struct {
	Gauge
	labelStr string
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	c := v.lookup(values, func(vals []string) any {
		return &gaugeChild{labelStr: labelString(v.labels, vals)}
	})
	return &c.(*gaugeChild).Gauge
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct {
	family
	base    int64
	seconds bool
}

type histChild struct {
	Histogram
	labelPairs string // rendered `k="v"` pairs without braces
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	c := v.lookup(values, func(vals []string) any {
		return &histChild{
			Histogram:  Histogram{base: v.base, seconds: v.seconds},
			labelPairs: labelPairs(v.labels, vals),
		}
	})
	return &c.(*histChild).Histogram
}

// labelString renders `{k="v",...}`.
func labelString(labels, values []string) string {
	return "{" + labelPairs(labels, values) + "}"
}

// labelPairs renders `k="v",...` with label-value escaping.
func labelPairs(labels, values []string) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}
