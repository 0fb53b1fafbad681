// Slow-operation tracing: per-stage timings of outlier operations.
// Histograms tell you the p99 got worse; the slow-op ring tells you
// *where* the time went on the specific commits that blew the
// threshold — WAL append vs fsync vs in-memory apply vs cluster fold
// — without the cost of tracing every operation. Fast operations pay
// a few time.Now() calls and zero allocations; only operations over
// the threshold take the ring lock (rare by definition).
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// maxStages bounds the per-stage breakdown of one traced operation.
const maxStages = 8

// StageTiming is one stage of a traced operation.
type StageTiming struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"dur_ns"`
}

// Trace is one recorded slow operation.
type Trace struct {
	// Op names the operation kind ("insert", "snapshot").
	Op string `json:"op"`
	// Detail carries operation-specific context (the source name).
	Detail string `json:"detail,omitempty"`
	// Start is when the operation began.
	Start time.Time `json:"start"`
	// Total is the operation's wall time.
	Total time.Duration `json:"total_ns"`
	// Stages is the per-stage breakdown, in execution order.
	Stages []StageTiming `json:"stages"`
}

// Tracer records operations slower than a threshold into a fixed-size
// ring (newest overwrite oldest). It spawns no goroutines and the
// ring memory is bounded at construction.
type Tracer struct {
	threshold atomic.Int64 // ns; <=0 disables recording
	recorded  atomic.Uint64
	mu        sync.Mutex
	ring      []Trace
	next      int
	filled    bool
}

// NewTracer returns a tracer with the given ring size and threshold.
func NewTracer(size int, threshold time.Duration) *Tracer {
	if size <= 0 {
		size = 1
	}
	t := &Tracer{ring: make([]Trace, size)}
	t.threshold.Store(int64(threshold))
	return t
}

// SetThreshold changes the slow threshold; <= 0 disables recording.
func (t *Tracer) SetThreshold(d time.Duration) { t.threshold.Store(int64(d)) }

// Threshold returns the current slow threshold.
func (t *Tracer) Threshold() time.Duration { return time.Duration(t.threshold.Load()) }

// Recorded counts traces recorded over the tracer's lifetime
// (including those the ring has since overwritten).
func (t *Tracer) Recorded() uint64 { return t.recorded.Load() }

// Snapshot returns the recorded traces, newest first.
func (t *Tracer) Snapshot() []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if !t.filled {
		out := make([]Trace, n)
		for i := 0; i < n; i++ {
			out[i] = t.ring[n-1-i]
		}
		return out
	}
	out := make([]Trace, len(t.ring))
	for i := range t.ring {
		out[i] = t.ring[(n-1-i+len(t.ring))%len(t.ring)]
	}
	return out
}

// Op accumulates one operation's stage timings on the caller's stack:
// no allocation unless the operation turns out slow. Use as
//
//	op := obs.StartOp("insert", source)
//	... phase 1 ...
//	op.Stage("prepare")
//	... phase 2 ...
//	op.Stage("wal_append")
//	op.Finish(tracer)
type Op struct {
	name, detail string
	start, last  time.Time
	stages       [maxStages]StageTiming
	n            int
}

// StartOp begins a traced operation.
func StartOp(name, detail string) Op {
	now := time.Now()
	return Op{name: name, detail: detail, start: now, last: now}
}

// Stage closes the current stage under the given name and returns its
// duration; time between Stage calls belongs to the stage being closed. Stages past maxStages are dropped from the trace
// but still timed. The returned duration lets callers feed a per-stage
// histogram off the same clock readings the trace uses.
func (o *Op) Stage(name string) time.Duration {
	now := time.Now()
	d := now.Sub(o.last)
	if o.n < maxStages {
		o.stages[o.n] = StageTiming{Name: name, Dur: d}
		o.n++
	}
	o.last = now
	return d
}

// Finish completes the operation, recording it into the tracer if it
// exceeded the threshold. It returns the total duration.
func (o *Op) Finish(t *Tracer) time.Duration {
	total := time.Since(o.start)
	if t == nil {
		return total
	}
	th := t.threshold.Load()
	if th <= 0 || int64(total) < th {
		return total
	}
	tr := Trace{
		Op:     o.name,
		Detail: o.detail,
		Start:  o.start,
		Total:  total,
		Stages: append([]StageTiming(nil), o.stages[:o.n]...),
	}
	t.recorded.Add(1)
	t.mu.Lock()
	t.ring[t.next] = tr
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	t.mu.Unlock()
	return total
}
