package hub

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/value"
	"entityid/internal/wal/errfs"
)

// runHub opens a durable hub on backend in a fresh directory over the
// file system fs (a healthy one when nil) and registers the workload's
// sources and links.
func runHub(t *testing.T, w *workload, backend string, fs *errfs.FS) (*Hub, string) {
	t.Helper()
	dir := t.TempDir()
	if fs == nil {
		fs = errfs.New(nil)
	}
	h, _, err := Open(dir, Options{Store: backend, HotClusterEntries: max(*hubHotClusters, 4), FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range w.names {
		if err := h.AddSource(name, w.seeds[i].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range w.links {
		if err := h.Link(spec); err != nil {
			t.Fatal(err)
		}
	}
	return h, dir
}

// runItems is the workload's items with, every few items, a tuple that
// depends on the one before it inside one window — the same tuple again
// (a candidate-key duplicate) and a second model of its entity under a
// fresh key — and one the hub refuses for itself in the middle of a run
// — a tuple of the wrong arity, one of an unknown source.
func runItems(w *workload) []Insert {
	key := 0
	if w.truth != nil {
		key = 1 // (name, loc): loc is the source-local half
	}
	var out []Insert
	for i, it := range w.items {
		out = append(out, Insert{Source: it.Source, Tuple: it.Tuple.Clone()})
		switch i % 13 {
		case 2:
			out = append(out, Insert{Source: it.Source, Tuple: it.Tuple.Clone()})
		case 5:
			twin := it.Tuple.Clone()
			twin[key] = value.String(fmt.Sprintf("twin-%d", i))
			out = append(out, Insert{Source: it.Source, Tuple: twin})
		case 8:
			out = append(out, Insert{Source: it.Source, Tuple: it.Tuple[:1].Clone()})
		case 11:
			out = append(out, Insert{Source: "nowhere", Tuple: it.Tuple.Clone()})
		}
	}
	return out
}

// walBytes reads every log segment of a closed hub's directory.
func walBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no log segments in %s (%v)", dir, err)
	}
	out := map[string]string{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = string(data)
	}
	return out
}

// inWindows commits items as a stream's commit goroutine does when a
// whole window is always queued behind it: each run is offered the next
// window of jobs, and the jobs a run leaves over open the next. Unlike a
// stream, whose runs are as long as the queue its encode-ahead goroutine
// has filled, every run here is as long as its tuples' independence
// allows.
func inWindows(h *Hub, items []Insert) []InsertResult {
	jobs := make([]streamJob, len(items))
	for i, it := range items {
		jobs[i] = streamJob{Insert: it, payload: h.walPayload(it.Source, it.Tuple)}
	}
	out := make([]InsertResult, len(items))
	for at := 0; at < len(jobs); {
		at += h.commitTraced(jobs[at:min(at+defaultStreamWindow, len(jobs))], out[at:])
	}
	return out
}

// sameResults fails t unless a run path answered every item as the
// one-at-a-time path did: the same receipt, or the same refusal in text
// and in the model's class.
func sameResults(t *testing.T, path string, items []Insert, got, want []InsertResult) {
	t.Helper()
	for i, it := range items {
		g, w := got[i], want[i]
		if (g.Err == nil) != (w.Err == nil) || g.Err != nil && g.Err.Error() != w.Err.Error() ||
			classOf(g.Err, errModelTuple) != classOf(w.Err, errModelTuple) {
			t.Fatalf("%s, item %d %s %v: answered %v, one at a time %v", path, i, it.Source, it.Tuple, g.Err, w.Err)
		}
		if g, w := plainReceiptOf(g.Receipt), plainReceiptOf(w.Receipt); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s, item %d %s %v: receipt %+v, one at a time %+v", path, i, it.Source, it.Tuple, g, w)
		}
	}
}

// TestRunEqualsSingles: items committed in runs commit exactly what they
// commit one at a time — the same receipt or the same refusal for every
// item, the same partition, invariants that hold and byte-identical logs
// — over workloads whose items break §3.2 pairwise and transitively,
// plant in-run key duplicates and two models of one entity inside one
// window, and refuse tuples mid-run, on both backends. The runs are
// taken twice: a window at a time (inWindows: every run as long as it
// can be) and through IngestBatch (a stream: runs as long as its queue).
func TestRunEqualsSingles(t *testing.T) {
	// classes counts the refusals every workload and backend drew, by the
	// model's reason: each §3.2 guard must fire somewhere.
	classes := map[error]int{}
	defer func() {
		for _, c := range []error{errModelTuple, errModelUnique, errModelConsistent, errModelTransitive} {
			if classes[c] == 0 && !t.Failed() {
				t.Errorf("no item was refused as %v", c)
			}
		}
	}()
	for _, ws := range []workSpec{
		{kind: "multi", cfg: datagen.MultiConfig{Sources: 4, Entities: 80, PresenceFrac: 0.7, HomonymRate: 0.25, MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 3}, shuffle: 3, mutants: 9},
		{kind: "rule", cfg: datagen.MultiConfig{Sources: 3, Entities: 80, PresenceFrac: 0.7, HomonymRate: 0.25, MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 4}, shuffle: 4, mutants: 9},
		{kind: "ring", cfg: datagen.MultiConfig{Entities: 60, Seed: 6}, shuffle: 6, mutants: 6},
	} {
		for _, backend := range simBackends() {
			t.Run(ws.kind+"/"+backend, func(t *testing.T) {
				w := ws.build()
				items := runItems(w)
				fs := errfs.New(nil)
				hw, dirW := runHub(t, w, backend, fs)
				hb, dirB := runHub(t, w, backend, nil)
				hs, dirS := runHub(t, w, backend, nil)
				singles := make([]InsertResult, len(items))
				accepted, refused := 0, 0
				for i, it := range items {
					singles[i].Receipt, singles[i].Err = hs.Insert(it.Source, it.Tuple)
					if singles[i].Err == nil {
						accepted++
					} else {
						refused++
						classes[classOf(singles[i].Err, errModelTuple)]++
					}
				}
				if accepted == 0 || refused == 0 {
					t.Fatalf("%d accepted, %d refused: the workload must exercise both", accepted, refused)
				}
				// A rule armed past half as many writes as tuples accepted
				// fires only if the runs held two tuples or fewer on average.
				fs.Inject(errfs.Rule{Op: errfs.OpWrite, PathContains: "wal-", After: accepted / 2, Count: 1, Err: syscall.EIO})
				sameResults(t, "a window at a time", items, inWindows(hw, items), singles)
				if fs.Faults() != 0 {
					t.Fatalf("%d tuples took more than %d writes: the runs held two tuples or fewer", accepted, accepted/2)
				}
				sameResults(t, "IngestBatch", items, hb.IngestBatch(items), singles)
				t.Logf("%d items: %d accepted, %d refused", len(items), accepted, refused)
				want := partitionOf(t, hs)
				for _, h := range []*Hub{hw, hb} {
					if got := partitionOf(t, h); !reflect.DeepEqual(got, want) {
						t.Fatalf("partition after runs %v, one at a time %v", got, want)
					}
				}
				for _, h := range []*Hub{hw, hb, hs} {
					if err := h.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					if err := h.Close(); err != nil {
						t.Fatal(err)
					}
				}
				log := walBytes(t, dirS)
				for _, dir := range []string{dirW, dirB} {
					if !reflect.DeepEqual(walBytes(t, dir), log) {
						t.Fatal("the runs' log differs from the one tuples committed one at a time wrote")
					}
				}
			})
		}
	}
}

// TestRunWriteFailsWhole tears a run's one write after more than one of
// its frames: the log rolls the write back, every tuple of the run is
// refused with the hub as it was, the next run's write succeeds, and
// after a kill the reopened hub, its log byte for byte, equals one that
// took the accepted tuples one at a time.
func TestRunWriteFailsWhole(t *testing.T) {
	ws := workSpec{kind: "multi", cfg: datagen.MultiConfig{Sources: 4, Entities: 80, PresenceFrac: 0.7, HomonymRate: 0.25, MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 6}, shuffle: 6}
	for _, backend := range simBackends() {
		t.Run(backend, func(t *testing.T) {
			w := ws.build()
			fs := errfs.New(nil)
			hr, dirR := runHub(t, w, backend, fs)
			hs, dirS := runHub(t, w, backend, nil)
			// EAGAIN is not a sick disk: the hub refuses the run and stays
			// ready. 300 bytes is two frames and part of a third.
			fs.Inject(errfs.Rule{Op: errfs.OpWrite, PathContains: "wal-", Count: 1, Err: syscall.EAGAIN, Partial: 300})
			runs := inWindows(hr, w.items)
			torn := 0
			for torn < len(runs) && errors.Is(runs[torn].Err, syscall.EAGAIN) {
				torn++
			}
			if torn < 3 {
				t.Fatalf("the torn write refused %d tuples (then %v), want a run of at least three", torn, runs[torn].Err)
			}
			// The hub as it was: past the torn run, the runs answer what a
			// hub that never saw it answers, and end where it ends.
			insert := func(h *Hub, i int) InsertResult {
				rec, err := h.Insert(w.items[i].Source, w.items[i].Tuple)
				return InsertResult{Receipt: rec, Err: err}
			}
			singles := make([]InsertResult, len(w.items))
			for i := torn; i < len(w.items); i++ {
				singles[i] = insert(hs, i)
			}
			sameResults(t, "past the torn run", w.items[torn:], runs[torn:], singles[torn:])
			if got, want := partitionOf(t, hr), partitionOf(t, hs); !reflect.DeepEqual(got, want) {
				t.Fatalf("partition past the torn run %v, one at a time %v", got, want)
			}
			// The next healthy writes take the refused tuples.
			for i := range torn {
				runs[i], singles[i] = insert(hr, i), insert(hs, i)
			}
			sameResults(t, "the torn run again", w.items[:torn], runs[:torn], singles[:torn])
			hr.quiesce()
			hr, _, err := Open(dirR, Options{Store: backend, HotClusterEntries: max(*hubHotClusters, 4)})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := partitionOf(t, hr), partitionOf(t, hs); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened partition %v, one at a time %v", got, want)
			}
			for _, h := range []*Hub{hr, hs} {
				if err := h.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if err := h.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := walBytes(t, dirR), walBytes(t, dirS); !reflect.DeepEqual(got, want) {
				t.Fatal("the log after a torn run differs from the one tuples committed one at a time wrote")
			}
		})
	}
}
