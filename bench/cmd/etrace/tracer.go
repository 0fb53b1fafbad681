package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"entityid/internal/store"
	"entityid/internal/wal"
)

// kind names what a span timed: a call into the hub made by this
// program (op*), or a call the hub made through one of the two
// decorated seams (st*, fs*).
type kind uint8

const (
	opStream kind = iota
	opInsert
	opLookup
	opWalk
	opOpen
	stRead
	stMembers
	stHas
	stPublish
	stPartition
	stPairSave
	stPairLoad
	fsWalRead
	fsWalWrite
	fsWalSync
	fsWalOther
	fsSnapRead
	fsSnapWrite
	fsSnapSync
	fsSnapOther
	numKinds
)

var kindNames = [numKinds]string{
	"hub.stream", "hub.insert", "hub.lookup", "hub.walk", "hub.open",
	"store.clusters.read", "store.clusters.members", "store.clusters.has",
	"store.clusters.publish", "store.clusters.partition", "store.pairs.save", "store.pairs.load",
	"fs.wal.read", "fs.wal.write", "fs.wal.sync", "fs.wal.other",
	"fs.snap.read", "fs.snap.write", "fs.snap.sync", "fs.snap.other",
}

// span is one timed call. Parent is the index of the hub call that was
// open when it started (-1 for the hub calls themselves): exact for the
// synchronous calls, whose seam calls run on the caller's goroutine,
// and the enclosing stream for the asynchronous pipeline.
type span struct {
	Kind   kind
	Start  int64 // ns since the pass began
	End    int64
	Parent int32
	N      int64 // what the call moved: tuples, clusters, or bytes
}

// maxSpans bounds the spans kept in memory; past it only the per-kind
// totals grow.
const maxSpans = 1 << 21

// tracer collects one pass's spans. Seam calls arrive from the
// pipeline's goroutines as well as the caller's, hence the lock.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
	cur     atomic.Int32 // the open hub call, -1 when none
	count   [numKinds]atomic.Int64
	busy    [numKinds]atomic.Int64 // ns
	moved   [numKinds]atomic.Int64
	tuples  int
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.cur.Store(-1)
	return t
}

// started is a span in progress: its slot, or -1 past the cap, and its start.
type started struct {
	idx   int32
	kind  kind
	start time.Duration
}

func (t *tracer) begin(k kind) started {
	o := started{idx: -1, kind: k, start: time.Since(t.t0)}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		o.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Kind: k, Start: int64(o.start), Parent: t.cur.Load()})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	if k <= opOpen {
		t.cur.Store(o.idx)
	}
	return o
}

func (t *tracer) end(o started, n int64) {
	end := time.Since(t.t0)
	t.count[o.kind].Add(1)
	t.busy[o.kind].Add(int64(end - o.start))
	t.moved[o.kind].Add(n)
	if o.kind <= opOpen {
		t.cur.Store(-1)
	}
	if o.idx < 0 {
		return
	}
	t.mu.Lock()
	t.spans[o.idx].End = int64(end)
	t.spans[o.idx].N = n
	t.mu.Unlock()
}

// under sums the spans of one kind whose parent is a hub call of
// another kind: how many, how long, how much moved.
func (t *tracer) under(k, parent kind) (count int, busy time.Duration, moved int64) {
	for _, s := range t.spans {
		if s.Kind == k && s.Parent >= 0 && t.spans[s.Parent].Kind == parent {
			count++
			busy += time.Duration(s.End - s.Start)
			moved += s.N
		}
	}
	return
}

func (t *tracer) mean(k kind) float64 {
	if c := t.count[k].Load(); c > 0 {
		return float64(t.busy[k].Load()) / float64(c)
	}
	return 0
}

// wall is the time spent inside hub calls: what the two passes compare.
func (t *tracer) wall() time.Duration {
	var d int64
	for k := opStream; k <= opOpen; k++ {
		d += t.busy[k].Load()
	}
	return time.Duration(d)
}

// metrics derives the traced run's per-layer metrics. Timings of the
// hub's own calls come from the pass without decorators; everything
// seen through a seam comes, necessarily, from the pass with them.
func metrics(plain, traced *tracer) map[string]float64 {
	const us = 1e3 // ns per µs
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tuples := float64(traced.tuples)
	lookups := float64(traced.count[opLookup].Load())
	m := map[string]float64{
		"hub.lookup_us_mean":             plain.mean(opLookup) / us,
		"hub.scan_us_per_cluster":        per(float64(plain.busy[opWalk].Load()), float64(plain.moved[opWalk].Load())) / us,
		"hub.ingest_us_per_tuple_inproc": per(float64(plain.busy[opStream].Load()), float64(plain.moved[opStream].Load())) / us,
		"hub.insert_us_inproc":           plain.mean(opInsert) / us,
		"recovery.open_s_inproc":         float64(plain.busy[opOpen].Load()) / 1e9,
		"store.publish_us_per_tuple":     per(float64(traced.busy[stPublish].Load()), tuples) / us,
		"wal.fs_writes_per_tuple":        per(float64(traced.count[fsWalWrite].Load()), tuples),
		"wal.fs_write_us_per_tuple":      per(float64(traced.busy[fsWalWrite].Load()), tuples) / us,
		"wal.fs_syncs":                   float64(traced.count[fsWalSync].Load()),
		"trace.overhead_ratio":           per(float64(traced.wall()), float64(plain.wall())),
	}
	reads, readBusy, _ := traced.under(stRead, opLookup)
	m["store.reads_per_lookup"] = per(float64(reads), lookups)
	m["store.read_us_mean"] = per(float64(readBusy), float64(reads)) / us
	var fsBusy time.Duration
	for _, k := range []kind{fsWalRead, fsSnapRead} {
		_, b, _ := traced.under(k, opOpen)
		fsBusy += b
	}
	m["recovery.fs_read_share"] = per(float64(fsBusy), float64(traced.busy[opOpen].Load()))
	_, _, snapBytes := traced.under(fsSnapRead, opOpen)
	m["recovery.snapshot_bytes_loaded"] = float64(snapBytes)
	return m
}

// summary prints, per kind, the calls, their total time and — for the
// synchronous hub calls — the self time: the span minus the seam calls
// made under it.
func (t *tracer) summary(w io.Writer) {
	child := map[kind]time.Duration{}
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		// The snapshot writer runs beside the hub call that happens to
		// be open, not under it; only recovery reads snapshots itself.
		p := t.spans[s.Parent].Kind
		if s.Kind >= fsSnapRead && p != opOpen {
			continue
		}
		child[p] += time.Duration(s.End - s.Start)
	}
	fmt.Fprintf(w, "%-26s %10s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for k := kind(0); k < numKinds; k++ {
		c := t.count[k].Load()
		if c == 0 {
			continue
		}
		total := time.Duration(t.busy[k].Load())
		self := "-"
		if k > opStream && k <= opOpen {
			self = fmt.Sprintf("%.2f", float64(total-child[k])/1e6)
		}
		fmt.Fprintf(w, "%-26s %10d %12.2f %12s\n", kindNames[k], c, float64(total)/1e6, self)
	}
}

// writeSpans writes both passes' spans as NDJSON.
func writeSpans(path string, passes ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	type rec struct {
		Pass   int    `json:"pass"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Op     int32  `json:"op"` // the hub call the span belongs to: itself or its parent
		N      int64  `json:"n"`
	}
	for p, t := range passes {
		for i, s := range t.spans {
			op := s.Parent
			if op < 0 {
				op = int32(i)
			}
			if err := enc.Encode(rec{p, kindNames[s.Kind], s.Start, s.End, s.Parent, op, s.N}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedBackend decorates the storage seam.
type timedBackend struct {
	store.Backend
	t *tracer
}

func (b timedBackend) Clusters() store.Clusters { return timedClusters{b.Backend.Clusters(), b.t} }
func (b timedBackend) Pairs() store.Pairs       { return timedPairs{b.Backend.Pairs(), b.t} }

type timedClusters struct {
	store.Clusters
	t *tracer
}

func (c timedClusters) Read(n store.Node) ([]store.Node, error) {
	s := c.t.begin(stRead)
	ms, err := c.Clusters.Read(n)
	c.t.end(s, int64(len(ms)))
	return ms, err
}

func (c timedClusters) Members(n store.Node) ([]store.Node, error) {
	s := c.t.begin(stMembers)
	ms, err := c.Clusters.Members(n)
	c.t.end(s, int64(len(ms)))
	return ms, err
}

func (c timedClusters) Has(n store.Node) bool {
	s := c.t.begin(stHas)
	ok := c.Clusters.Has(n)
	c.t.end(s, 0)
	return ok
}

func (c timedClusters) Publish(members []store.Node) {
	s := c.t.begin(stPublish)
	c.Clusters.Publish(members)
	c.t.end(s, int64(len(members)))
}

func (c timedClusters) Partition() ([][]store.Node, error) {
	s := c.t.begin(stPartition)
	p, err := c.Clusters.Partition()
	c.t.end(s, int64(len(p)))
	return p, err
}

type timedPairs struct {
	store.Pairs
	t *tracer
}

func (p timedPairs) Save(id int, tab store.PairTab) error {
	s := p.t.begin(stPairSave)
	err := p.Pairs.Save(id, tab)
	p.t.end(s, int64(len(tab.Pairs)))
	return err
}

func (p timedPairs) Load(id int) (store.PairTab, error) {
	s := p.t.begin(stPairLoad)
	tab, err := p.Pairs.Load(id)
	p.t.end(s, int64(len(tab.Pairs)))
	return tab, err
}

// timedFS decorates the filesystem seam, splitting the log's files
// from the snapshot writer's by name.
type timedFS struct {
	wal.FS
	t *tracer
}

// fsKind picks the wal or the snapshot variant of a file operation.
func fsKind(path string, walKind kind) kind {
	if strings.HasPrefix(filepath.Base(path), "wal") {
		return walKind
	}
	return walKind + (fsSnapRead - fsWalRead)
}

func (f timedFS) wrap(file wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{file, f.t}, nil
}

func (f timedFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	s := f.t.begin(fsKind(name, fsWalOther))
	file, err := f.FS.OpenFile(name, flag, perm)
	f.t.end(s, 0)
	return f.wrap(file, err)
}

func (f timedFS) Open(name string) (wal.File, error) {
	s := f.t.begin(fsKind(name, fsWalOther))
	file, err := f.FS.Open(name)
	f.t.end(s, 0)
	return f.wrap(file, err)
}

func (f timedFS) CreateTemp(dir, pattern string) (wal.File, error) {
	s := f.t.begin(fsKind(pattern, fsWalOther))
	file, err := f.FS.CreateTemp(dir, pattern)
	f.t.end(s, 0)
	return f.wrap(file, err)
}

func (f timedFS) Rename(oldpath, newpath string) error {
	s := f.t.begin(fsKind(newpath, fsWalOther))
	err := f.FS.Rename(oldpath, newpath)
	f.t.end(s, 0)
	return err
}

func (f timedFS) Remove(name string) error {
	s := f.t.begin(fsKind(name, fsWalOther))
	err := f.FS.Remove(name)
	f.t.end(s, 0)
	return err
}

func (f timedFS) ReadFile(name string) ([]byte, error) {
	s := f.t.begin(fsKind(name, fsWalRead))
	b, err := f.FS.ReadFile(name)
	f.t.end(s, int64(len(b)))
	return b, err
}

type timedFile struct {
	wal.File
	t *tracer
}

func (f *timedFile) Read(p []byte) (int, error) {
	s := f.t.begin(fsKind(f.Name(), fsWalRead))
	n, err := f.File.Read(p)
	f.t.end(s, int64(n))
	return n, err
}

func (f *timedFile) Write(p []byte) (int, error) {
	s := f.t.begin(fsKind(f.Name(), fsWalWrite))
	n, err := f.File.Write(p)
	f.t.end(s, int64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	s := f.t.begin(fsKind(f.Name(), fsWalSync))
	err := f.File.Sync()
	f.t.end(s, 0)
	return err
}

func (f *timedFile) Truncate(size int64) error {
	s := f.t.begin(fsKind(f.Name(), fsWalOther))
	err := f.File.Truncate(size)
	f.t.end(s, 0)
	return err
}

func (f *timedFile) Close() error {
	s := f.t.begin(fsKind(f.Name(), fsWalOther))
	err := f.File.Close()
	f.t.end(s, 0)
	return err
}
