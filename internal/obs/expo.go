// Prometheus text exposition format (version 0.0.4): every registered
// metric renders # HELP and # TYPE comment lines followed by its
// samples. Histograms render cumulative buckets with le labels, a
// _sum and a _count, exactly as the format requires.
package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// WritePrometheus renders every registered metric in registration
// order. The snapshot is per-metric atomic (each value is one atomic
// load); across metrics it is weakly consistent, as Prometheus
// scrapes always are.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	metrics := make([]renderer, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	for _, m := range metrics {
		m.render(bw)
	}
	return bw.Flush()
}

// fmtFloat renders a sample value: integers without exponent, +Inf as
// the format spells it.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func header(w *bufio.Writer, name, help, typ string) {
	w.WriteString("# HELP ")
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(help))
	w.WriteString("\n# TYPE ")
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(typ)
	w.WriteByte('\n')
}

func sample(w *bufio.Writer, name, labels string, value string) {
	w.WriteString(name)
	w.WriteString(labels)
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

func (c *Counter) render(w *bufio.Writer) {
	header(w, c.name, c.help, "counter")
	sample(w, c.name, "", strconv.FormatUint(c.Value(), 10))
}

func (g *Gauge) render(w *bufio.Writer) {
	header(w, g.name, g.help, "gauge")
	sample(w, g.name, "", strconv.FormatInt(g.Value(), 10))
}

func (g *gaugeFunc) render(w *bufio.Writer) {
	header(w, g.name, g.help, "gauge")
	sample(w, g.name, "", fmtFloat(g.fn()))
}

func (h *Histogram) render(w *bufio.Writer) {
	header(w, h.name, h.help, "histogram")
	h.renderSamples(w, h.name, "")
}

// renderSamples renders the bucket/sum/count triplet, with extraLabels
// (no braces, no trailing comma) merged into each bucket's label set —
// shared by plain histograms and vec children.
func (h *Histogram) renderSamples(w *bufio.Writer, name, extraLabels string) {
	// Load counts first, then cumulate: each bucket is one atomic load,
	// and the count sample is derived from the same loads so
	// sum(buckets) == count within one render.
	var cum uint64
	var total uint64
	counts := make([]uint64, histBuckets+1)
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	for i := 0; i <= histBuckets; i++ {
		cum += counts[i]
		le := `le="` + fmtFloat(h.bound(i)) + `"`
		labels := "{" + le + "}"
		if extraLabels != "" {
			labels = "{" + extraLabels + "," + le + "}"
		}
		sample(w, name+"_bucket", labels, strconv.FormatUint(cum, 10))
	}
	braced := ""
	if extraLabels != "" {
		braced = "{" + extraLabels + "}"
	}
	sample(w, name+"_sum", braced, fmtFloat(h.Sum()))
	sample(w, name+"_count", braced, strconv.FormatUint(total, 10))
}

func (v *CounterVec) render(w *bufio.Writer) {
	header(w, v.name, v.help, "counter")
	for _, c := range v.sortedChildren() {
		ch := c.(*counterChild)
		sample(w, v.name, ch.labelStr, strconv.FormatUint(ch.Value(), 10))
	}
}

func (v *GaugeVec) render(w *bufio.Writer) {
	header(w, v.name, v.help, "gauge")
	for _, c := range v.sortedChildren() {
		ch := c.(*gaugeChild)
		val := strconv.FormatInt(ch.Value(), 10)
		if v.seconds {
			val = fmtFloat(float64(ch.Value()) / 1e9)
		}
		sample(w, v.name, ch.labelStr, val)
	}
}

func (v *HistogramVec) render(w *bufio.Writer) {
	header(w, v.name, v.help, "histogram")
	for _, c := range v.sortedChildren() {
		ch := c.(*histChild)
		ch.renderSamples(w, v.name, ch.labelPairs)
	}
}
