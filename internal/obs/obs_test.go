package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.LatencyHistogram("lat_seconds", "latency")
	// Exactly at the base bound (1µs), inside it, and one past it.
	for _, d := range []time.Duration{0, time.Microsecond} {
		if got := h.bucketOf(int64(d)); got != 0 {
			t.Fatalf("bucketOf(%v) = %d, want 0", d, got)
		}
	}
	if got := h.bucketOf(int64(time.Microsecond + 1)); got != 1 {
		t.Fatalf("bucketOf(1µs+1) = %d, want 1", got)
	}
	if got := h.bucketOf(int64(2 * time.Microsecond)); got != 1 {
		t.Fatalf("bucketOf(2µs) = %d, want 1", got)
	}
	// A value beyond the largest finite bound lands in +Inf.
	if got := h.bucketOf(math.MaxInt64 / 2); got != histBuckets {
		t.Fatalf("huge value bucket = %d, want %d", got, histBuckets)
	}
	h.Observe(3 * time.Millisecond)
	h.Observe(time.Second)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	want := (3*time.Millisecond + time.Second).Seconds()
	if diff := math.Abs(h.Sum() - want); diff > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	// Negative durations clamp to zero rather than corrupting a bucket.
	h.Observe(-time.Second)
	if h.Count() != 3 {
		t.Fatalf("count after negative observe = %d, want 3", h.Count())
	}
}

func TestSizeHistogramBounds(t *testing.T) {
	r := NewRegistry()
	h := r.SizeHistogram("batch_size", "sizes")
	h.ObserveVal(1)   // bucket 0 (le 1)
	h.ObserveVal(2)   // bucket 1 (le 2)
	h.ObserveVal(3)   // bucket 2 (le 4)
	h.ObserveVal(100) // le 128 = bucket 7
	if got := h.bucketOf(100); got != 7 {
		t.Fatalf("bucketOf(100) = %d, want 7", got)
	}
	if h.Sum() != 106 {
		t.Fatalf("sum = %v, want 106", h.Sum())
	}
}

func TestVecCardinalityBound(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "route")
	// Distinct children up to the cap...
	for i := 0; i < maxFamilyChildren; i++ {
		v.With(strings.Repeat("x", i+1)).Inc()
	}
	// ...then every new label value collapses into the shared child.
	over1 := v.With("fresh-1")
	over2 := v.With("fresh-2")
	if over1 != over2 {
		t.Fatalf("past-the-cap children not shared")
	}
	over1.Inc()
	over2.Inc()
	if v.With("other").Value() != 2 {
		t.Fatalf("overflow child = %d, want 2", v.With("other").Value())
	}
	// Pre-cap children are still individually addressable.
	if v.With("x").Value() != 1 {
		t.Fatalf("pre-cap child lost its count")
	}
	if n := v.nChildren.Load(); n > maxFamilyChildren+1 {
		t.Fatalf("%d children materialised, cap is %d", n, maxFamilyChildren)
	}
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	for name, f := range map[string]func(){
		"duplicate":    func() { r.Counter("dup_total", "second") },
		"invalid name": func() { r.Counter("bad-name", "hyphen") },
		"empty name":   func() { r.Counter("", "empty") },
		"bad label":    func() { r.CounterVec("v_total", "vec", "bad-label") },
		"no labels":    func() { r.CounterVec("v2_total", "vec") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestVecWrongArity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("a_total", "vec", "x", "y")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "counter")
	h := r.LatencyHistogram("h_seconds", "hist")
	v := r.CounterVec("v_total", "vec", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(time.Duration(i) * time.Microsecond)
				v.With("a").Inc()
				if i%100 == 0 {
					var sb strings.Builder
					r.WritePrometheus(&sb)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if v.With("a").Value() != 8000 {
		t.Fatalf("vec child = %d, want 8000", v.With("a").Value())
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("c_total", "counter")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.LatencyHistogram("h_seconds", "hist")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(123 * time.Microsecond)
		}
	})
}

func BenchmarkVecLookupObserve(b *testing.B) {
	r := NewRegistry()
	v := r.LatencyHistogramVec("h_seconds", "hist", "stage")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v.With("apply").Observe(123 * time.Microsecond)
		}
	})
}
