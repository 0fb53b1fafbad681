// Package obs is the hub's zero-dependency observability plane:
// atomic Counter/Gauge/Histogram primitives, a Registry of named
// metrics with bounded-cardinality labeled families, Prometheus
// text-format exposition (expo.go), and a slow-operation tracer that
// keeps per-stage timings of outlier commits in a fixed ring
// (slowop.go).
//
// The hot path is lock-free: observing a counter, gauge or histogram
// is one or two atomic adds, so the WAL append path, the hub commit
// path and the HTTP middleware can run fully instrumented without
// taking a lock or allocating. Family (label) lookup goes through a
// sync.Map and should be hoisted out of hot loops by caching the
// child (see the package-level stage children in internal/hub).
//
// Timing capture is always on: what the instruments cost is part of
// every figure bench/ reports.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is
// usable but unregistered; obtain registered counters from a Registry.
type Counter struct {
	v          atomic.Uint64
	name, help string
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	v          atomic.Int64
	name, help string
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to subtract).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count of every histogram: base ×
// 2^0 .. 2^(histBuckets-1), plus the implicit +Inf bucket. With the
// latency base of 1µs the top finite bound is ~67s; with the size
// base of 1 it is ~67M.
const histBuckets = 27

// Histogram is a fixed log-scale (powers-of-two) histogram. Observing
// is lock-free: one atomic add into the bucket, one into the sum, one
// into the count. Two flavors exist: latency histograms (base 1µs,
// rendered in seconds) and size histograms (base 1, rendered as raw
// values); the bucket layout is identical.
type Histogram struct {
	name, help string
	// base is the lowest bucket's upper bound: 1µs in nanoseconds for
	// latency histograms, 1 for size histograms.
	base int64
	// seconds marks a latency histogram: bounds and sum render as
	// seconds in the exposition.
	seconds bool
	counts  [histBuckets + 1]atomic.Uint64 // last slot is +Inf
	sum     atomic.Int64
	count   atomic.Uint64
}

// bucketOf maps an observation to its bucket index: the first bucket
// whose upper bound (base<<i) is >= v; histBuckets for +Inf.
func (h *Histogram) bucketOf(v int64) int {
	if v <= h.base {
		return 0
	}
	idx := bits.Len64(uint64((v - 1) / h.base))
	if idx >= histBuckets {
		return histBuckets
	}
	return idx
}

// observe records one raw value (nanoseconds for latency histograms).
func (h *Histogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[h.bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Observe records a duration into a latency histogram.
func (h *Histogram) Observe(d time.Duration) { h.observe(int64(d)) }

// ObserveVal records a plain value (a batch size, a byte count) into a
// size histogram.
func (h *Histogram) ObserveVal(v int64) { h.observe(v) }

// ObserveShares records d as n observations of an equal share each —
// one stage's time over the n items a batch did it for — so the sum
// grows by d and the count by n, and sum/count stays time per item. No-op
// for n <= 0.
func (h *Histogram) ObserveShares(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	v := max(int64(d), 0)
	h.counts[h.bucketOf(v/int64(n))].Add(uint64(n))
	h.sum.Add(v)
	h.count.Add(uint64(n))
}

// Since observes the elapsed time from start.
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations in the histogram's render
// unit (seconds for latency histograms).
func (h *Histogram) Sum() float64 {
	s := float64(h.sum.Load())
	if h.seconds {
		return s / 1e9
	}
	return s
}

// bound returns bucket i's upper bound in the render unit.
func (h *Histogram) bound(i int) float64 {
	if i >= histBuckets {
		return math.Inf(1)
	}
	b := float64(h.base * (1 << i))
	if h.seconds {
		return b / 1e9
	}
	return b
}
