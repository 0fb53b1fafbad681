package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed request: when it completed, relative to the
// start of its connection's phase, and how long it took.
type sample struct{ end, lat time.Duration }

type samples []sample

// warmFrac is the leading share of every phase's samples that is
// discarded: connection set-up, cold caches, the scheduler settling.
const warmFrac = 0.05

// steady drops the first warmFrac of the samples.
func (s samples) steady() samples { return s[int(float64(len(s))*warmFrac):] }

// span is the steady part as work over time: how many samples came
// after the discarded ones, and how long they took.
func (s samples) span() (n int, took time.Duration) {
	k := int(float64(len(s)) * warmFrac)
	if len(s)-k < 2 {
		return 0, 0
	}
	from := time.Duration(0)
	if k > 0 {
		from = s[k-1].end
	}
	return len(s) - k, s[len(s)-1].end - from
}

// latenciesMS returns the sorted steady latencies in milliseconds, all
// connections pooled.
func latenciesMS(conns ...samples) []float64 {
	var out []float64
	for _, s := range conns {
		for _, x := range s.steady() {
			out = append(out, float64(x.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// quantile reads the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// mean is the mean of values, of which there must be some.
func mean(values []float64) float64 {
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// median is the median of values; it sorts a copy.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the acceptance check of this benchmark uses.
func quartiles(values []float64) (q1, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n < 2 {
		return v[0], v[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
