// Command etrace is the benchmark's traced run: it replays a
// workload's operations in-process through the hub, with timing
// decorators on the two seams the program already has — the filesystem
// under the log and the snapshot writer (hub.Options.FS) and the
// storage backend (hub.Options.Backend) — and reports what each layer
// did. It is a separate binary from the socket driver because it
// imports the program's internal packages: an internal API change may
// break it without breaking the black-box numbers.
//
// It passes over the operations twice, without and with the
// decorators; the ratio of the two is the tracing overhead. No
// end-to-end metric is taken from here.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"entityid/bench/gen"
	"entityid/bench/plan"
	"entityid/internal/hub"
	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/store"
	"entityid/internal/store/disk"
	"entityid/internal/store/mem"
	"entityid/internal/value"
	"entityid/internal/wal"
)

func main() {
	var (
		wlName  = flag.String("workload", "", "workload to replay")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", plan.NominalSeconds/2, "size of the replay, on the socket driver's scale")
		tmp     = flag.String("tmp", os.TempDir(), "where data directories and the span file go")
	)
	flag.Parse()
	wl := plan.Find(*wlName)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "etrace: unknown workload %q\n", *wlName)
		os.Exit(2)
	}
	if err := realMain(wl, *seed, *seconds, *tmp); err != nil {
		fmt.Fprintln(os.Stderr, "etrace:", err)
		os.Exit(1)
	}
}

func realMain(wl *plan.Workload, seed int64, seconds int, tmp string) error {
	E, _ := wl.Size(seconds)
	w := gen.Generate(seed, E)
	plain, err := replay(wl, w, tmp, false)
	if err != nil {
		return fmt.Errorf("pass without decorators: %w", err)
	}
	traced, err := replay(wl, w, tmp, true)
	if err != nil {
		return fmt.Errorf("pass with decorators: %w", err)
	}
	spanFile := filepath.Join(tmp, "etrace-"+wl.Name+".spans.ndjson")
	if err := writeSpans(spanFile, plain, traced); err != nil {
		return err
	}
	fmt.Printf("spans: %s (%d kept, %d past the cap counted only)\n", spanFile,
		len(plain.spans)+len(traced.spans), plain.dropped+traced.dropped)
	traced.summary(os.Stdout)
	out, err := json.Marshal(map[string]any{"metrics": metrics(plain, traced)})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(out))
	return err
}

// defaultHotPairs is the daemon's own default for -store-hot-pairs,
// which no workload overrides.
const defaultHotPairs = 8

// replay runs the workload's operations once. It calls only what the
// daemon's handlers call: IngestStream for streams, Insert for single
// lines, Lookup, ClustersWalk, and a second Open on a copy of the data
// directory taken at quiescence, which is what kill -9 leaves.
func replay(wl *plan.Workload, w *gen.Workload, tmp string, decorate bool) (*tracer, error) {
	tr := newTracer()
	dir, err := os.MkdirTemp(tmp, "etrace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	open := func(dir string) (*hub.Hub, error) {
		opts := hub.Options{SnapshotEvery: wl.SnapshotEvery}
		var be store.Backend = mem.New()
		if wl.Store == "disk" {
			be, err = disk.Open(filepath.Join(dir, "storetier"), store.Caps{HotClusterEntries: wl.HotClusters, HotPairs: defaultHotPairs})
			if err != nil {
				return nil, err
			}
		}
		opts.Backend = be
		if decorate {
			opts.Backend = timedBackend{be, tr}
			opts.FS = timedFS{wal.OS, tr}
		}
		h, _, err := hub.Open(dir, opts)
		return h, err
	}
	h, err := open(dir)
	if err != nil {
		return nil, err
	}
	defer func() { _ = h.Close() }() // read-only by then; a snapshot error would have failed an insert
	if err := declare(h, w); err != nil {
		return nil, err
	}

	n := len(w.Tuples)
	nWarm := int(float64(n) * wl.Warm)
	items := make([]hub.Insert, n)
	for i, t := range w.Tuples {
		items[i] = hub.Insert{Source: gen.SourceName(t.Src), Tuple: tuple(t)}
	}
	if err := stream(tr, h, items[:nWarm]); err != nil {
		return nil, err
	}
	// The ingest window: single inserts for the live workload; a stream
	// otherwise, with a tail of single inserts so that every workload
	// shows the synchronous commit path's spans.
	single := nWarm
	if !wl.Live {
		single = n - min(2000, (n-nWarm)/50)
		if err := stream(tr, h, items[nWarm:single]); err != nil {
			return nil, err
		}
	}
	for _, it := range items[single:] {
		s := tr.begin(opInsert)
		_, err := h.Insert(it.Source, it.Tuple)
		tr.end(s, 0)
		if err != nil {
			return nil, fmt.Errorf("insert: %w", err)
		}
	}
	waitIdle()

	// Point reads, with the socket driver's key popularity. The socket
	// driver reads and scans between its ingest slices; here each kind of
	// operation runs in one stretch, which is what a per-operation cost
	// needs.
	pick := plan.ZipfKeys(w.Seed, n)
	for i := 0; i < n/2; i++ {
		t := w.Tuples[pick()]
		s := tr.begin(opLookup)
		_, err := h.Lookup(gen.SourceName(t.Src), value.String(t.Vals[0]), value.String(t.Vals[1]))
		tr.end(s, 0)
		if err != nil {
			return nil, fmt.Errorf("lookup: %w", err)
		}
	}
	for i := 0; i < 3; i++ {
		clusters := 0
		s := tr.begin(opWalk)
		err := h.ClustersWalk("", 0, func(hub.Cluster, string) bool { clusters++; return true })
		tr.end(s, int64(clusters))
		if err != nil {
			return nil, fmt.Errorf("walk: %w", err)
		}
	}
	waitIdle()

	// Recovery: what a restart after kill -9 would open.
	dir2, err := os.MkdirTemp(tmp, "etrace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir2)
	if err := copyDataDir(dir, dir2); err != nil {
		return nil, err
	}
	s := tr.begin(opOpen)
	h2, err := open(dir2)
	tr.end(s, 0)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	defer func() { _ = h2.Close() }() // nothing was written through it
	if got := h2.Stats().Tuples; got != n {
		return nil, fmt.Errorf("recovery: %d tuples, %d were committed", got, n)
	}
	tr.tuples = n
	return tr, nil
}

// declare registers the sources and links through the hub's own types.
func declare(h *hub.Hub, w *gen.Workload) error {
	for _, s := range w.Sources {
		attrs := make([]schema.Attribute, len(s.Attrs))
		for i, a := range s.Attrs {
			attrs[i] = schema.Attribute{Name: a.Name, Kind: value.KindString}
		}
		sch, err := schema.New(s.Name, attrs, s.Key)
		if err != nil {
			return err
		}
		if err := h.AddSource(s.Name, relation.New(sch)); err != nil {
			return err
		}
	}
	for _, l := range w.Links {
		spec := hub.PairSpec{Left: l.Left, Right: l.Right, ExtKey: l.ExtKey}
		for _, a := range l.Attrs {
			spec.Attrs = append(spec.Attrs, match.AttrMap{Name: a.Name, R: a.Left, S: a.Right})
		}
		for _, line := range l.ILFDs {
			f, err := ilfd.ParseLine(line)
			if err != nil {
				return err
			}
			spec.ILFDs = append(spec.ILFDs, f)
		}
		if err := h.Link(spec); err != nil {
			return err
		}
	}
	return nil
}

func tuple(t gen.Tuple) relation.Tuple {
	out := relation.Tuple{value.String(t.Vals[0]), value.String(t.Vals[1]), value.String(t.Vals[2]), value.String(t.Vals[3])}
	if t.NoPhone {
		out[3] = value.Null
	}
	return out
}

// stream feeds items through the dataflow pipeline as one stream, the
// way the /v1/insert handler does, and waits for the last result.
func stream(tr *tracer, h *hub.Hub, items []hub.Insert) error {
	in := make(chan hub.Insert)
	s := tr.begin(opStream)
	results := h.IngestStream(context.Background(), in, hub.StreamOptions{})
	go func() {
		for _, it := range items {
			in <- it
		}
		close(in)
	}()
	var firstErr error
	got := 0
	for r := range results {
		got++
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
	}
	tr.end(s, int64(got))
	if firstErr != nil {
		return fmt.Errorf("stream: %w", firstErr)
	}
	if got != len(items) {
		return fmt.Errorf("stream: %d results for %d items", got, len(items))
	}
	return nil
}

// waitIdle returns once this process has used no CPU for a whole
// window: the background snapshot writer has finished.
func waitIdle() {
	cpu := func() int64 {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		return ru.Utime.Nano() + ru.Stime.Nano()
	}
	prev := cpu()
	for i := 0; i < 200; i++ {
		time.Sleep(100 * time.Millisecond)
		cur := cpu()
		// The sleeping loop itself costs a few microseconds a turn.
		if cur-prev < int64(2*time.Millisecond) {
			return
		}
		prev = cur
	}
}

// copyDataDir copies the log and the snapshot files, not the spill
// tier (a cache the daemon wipes on open) and not the lock.
func copyDataDir(from, to string) error {
	return filepath.WalkDir(from, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		switch {
		case e.IsDir() && e.Name() == "storetier":
			return filepath.SkipDir
		case e.IsDir():
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		case !e.Type().IsRegular() || e.Name() == "wal.lock":
			return nil
		}
		return copyFile(path, filepath.Join(to, rel))
	})
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
