// The snapshot loader: the directory store read back. The data
// directory holds a manifest file plus one content-addressed file per
// run of each source's tuples and each pair's matching table under
// snapsecs/ (written by snapwriter.go, in the format of snapshot.go).
// Loading runs in four phases, each timed in RecoveryInfo: run decode
// (files read and decoded on a fixed set of workers), pair restore (the
// relations rebuilt one source per worker, the pairwise federations
// re-verified concurrently), cluster fold, and — in Open — log replay.
// The partition is not stored; the loader computes it once: every
// restored link is registered without folding, then one pass of the
// cluster fold (cluster.go) over all the verified tables, each union
// decided by store.CheckMerge, publishes each component to the empty
// cluster store exactly once. Loading fails closed: frame CRCs, per-run
// content hashes, chunk and item counts, and each run's declared
// sequence and position are verified against the manifest, whose run
// directories must be dense and full but for each sequence's last run;
// every schema, ILFD and rule is re-validated by its domain
// constructor; every pairwise federation is rebuilt through
// federate.Restore (which verifies the rebuilt matching table equals
// the saved one); and the cluster store, read back, must hold exactly
// the components the fold published.
package hub

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"entityid/internal/federate"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/store"
	"entityid/internal/wal"
)

const (
	snapshotManifest = "snapshot.manifest.ei"
	snapshotManTmp   = "snapshot.manifest.ei.tmp"
	snapSecDir       = "snapsecs"
	snapSecSuffix    = ".sec"
)

// readManifest reads and validates the committed manifest file.
func readManifest(fsys wal.FS, dir string) (*snapManifest, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, snapshotManifest))
	if err != nil {
		return nil, err
	}
	rec, err := wal.DecodeRecord(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot manifest: %w", err)
	}
	return decodeManifest(rec)
}

// secPath names a run's content-addressed file.
func secPath(dir, hash string) string {
	return filepath.Join(dir, snapSecDir, hash+snapSecSuffix)
}

// loadSnapshotSections rebuilds a hub from a manifest's run files,
// decoding them in parallel and verifying each file's content hash,
// chunk count, item count and declared position against the manifest.
// The hub is assembled onto the given storage backend (nil means
// memory); info receives the wall time of each phase.
func loadSnapshotSections(fsys wal.FS, dir string, man *snapManifest, b store.Backend, info *RecoveryInfo) (*Hub, error) {
	start := time.Now()
	if man.RunItems < 1 {
		return nil, fmt.Errorf("hub: load snapshot: manifest cut at a run length of %d", man.RunItems)
	}
	// One job per run file; seqs[i] collects sequence i's decoded runs,
	// sources then pairs. A source's runs are read against the schema of
	// its manifest slot.
	type job struct {
		id   runID
		want snapRun
		sch  *schema.Schema
		into **decRun
	}
	var jobs []job
	var seqs [][]*decRun
	add := func(id runID, runs []snapRun, sch *schema.Schema) error {
		dec := make([]*decRun, len(runs))
		for k, r := range runs {
			id.run = k
			jobs = append(jobs, job{id, r, sch, &dec[k]})
		}
		seqs = append(seqs, dec)
		return checkRuns(id, runs, man.RunItems)
	}
	schemas := make([]*schema.Schema, len(man.Sources))
	for i, s := range man.Sources {
		var err error
		if schemas[i], err = wal.DecodeSchema(s.Schema); err != nil {
			return nil, fmt.Errorf("hub: snapshot source %q: %w", s.Name, err)
		}
		if err := add(s.id(), s.Runs, schemas[i]); err != nil {
			return nil, err
		}
	}
	for _, p := range man.Pairs {
		if err := add(p.id(), p.Runs, nil); err != nil {
			return nil, err
		}
	}
	err := inParallel(len(jobs), func(i int) (err error) {
		*jobs[i].into, err = readRunFile(fsys, dir, jobs[i].id, jobs[i].want, jobs[i].sch)
		return err
	})
	if err != nil {
		return nil, err
	}
	info.DecodeTime = time.Since(start)
	return assembleHub(man, schemas, seqs[:len(man.Sources)], seqs[len(man.Sources):], b, info)
}

// readRunFile decodes one run file (a source's against sch) and verifies
// the result — sequence, position, counts, content hash — against its
// manifest entry.
func readRunFile(fsys wal.FS, dir string, id runID, want snapRun, sch *schema.Schema) (*decRun, error) {
	f, err := fsys.Open(secPath(dir, want.Hash))
	if err != nil {
		return nil, fmt.Errorf("snapshot %v: %w", id, err)
	}
	defer f.Close()
	d, err := decodeRun(f, sch)
	if err != nil {
		return nil, err
	}
	if err := d.matches(id, want); err != nil {
		return nil, err
	}
	return d, nil
}

// assembleHub builds a hub from a manifest, its sources' decoded schemas
// and its decoded runs, one slice per source and per pair, onto the given
// storage backend (nil means in-memory):
// each source's runs concatenated into its relation, one source per
// worker, and registered in manifest order; pairwise federations
// re-verified in parallel through federate.Restore — each over the
// loaded relations themselves, which the federations only read, so
// concurrent restores share them without a copy, and each adopting its
// table's saved commit order, which later commits continue; and the
// links registered and folded once (foldRestored).
func assembleHub(man *snapManifest, schemas []*schema.Schema, srcRuns, pairRuns [][]*decRun, b store.Backend, info *RecoveryInfo) (*Hub, error) {
	start := time.Now()
	rels := make([]*relation.Relation, len(man.Sources))
	err := inParallel(len(rels), func(i int) error {
		src := man.Sources[i]
		rels[i] = relation.New(schemas[i])
		for _, r := range srcRuns[i] {
			for _, t := range r.tuples {
				if err := rels[i].Insert(t); err != nil {
					return fmt.Errorf("hub: snapshot source %q tuple %d: %w", src.Name, rels[i].Len(), err)
				}
			}
			r.tuples = nil // the relation holds its own copy
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	h := NewWithBackend(b)
	for i, src := range man.Sources {
		if err := h.AddSource(src.Name, rels[i]); err != nil {
			return nil, fmt.Errorf("hub: load snapshot: %w", err)
		}
	}
	// Re-verify every pairwise federation concurrently: Restore rebuilds
	// the matching table from the loaded relations and proves it equals
	// the saved one — the expensive, independent step.
	specs := make([]PairSpec, len(man.Pairs))
	feds := make([]*federate.Federation, len(man.Pairs))
	err = inParallel(len(man.Pairs), func(i int) error {
		dp := man.Pairs[i]
		spec, err := specFromLinkRec(dp.Link)
		if err != nil {
			return fmt.Errorf("hub: load snapshot: link %q-%q: %w", dp.Link.Left, dp.Link.Right, err)
		}
		li, ok := h.byName[spec.Left]
		if !ok {
			return fmt.Errorf("hub: load snapshot: link references unknown source %q", spec.Left)
		}
		ri, ok := h.byName[spec.Right]
		if !ok {
			return fmt.Errorf("hub: load snapshot: link references unknown source %q", spec.Right)
		}
		st := federate.State{RLen: dp.RLen, SLen: dp.SLen}
		for _, r := range pairRuns[i] {
			st.Pairs = append(st.Pairs, r.mt...)
			r.mt = nil // the federation keeps its own log
		}
		fed, err := federate.Restore(h.matchConfig(li, ri, spec), st)
		if err != nil {
			return fmt.Errorf("hub: load snapshot: link %q-%q: %w", spec.Left, spec.Right, err)
		}
		specs[i], feds[i] = spec, fed
		return nil
	})
	if err != nil {
		return nil, err
	}
	info.RestoreTime = time.Since(start)
	start = time.Now()
	err = h.foldRestored(specs, feds)
	info.FoldTime = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("hub: load snapshot: %w", err)
	}
	return h, nil
}

// foldRestored registers the restored links without folding them, then
// folds every table — each in the saved order its federation adopted —
// in one pass onto the still empty cluster store, publishes each
// component once and reads the store back: it must hold exactly the
// fold.
func (h *Hub) foldRestored(specs []PairSpec, feds []*federate.Federation) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.commitMu.Lock()
	defer h.commitMu.Unlock()
	mts := make([]*match.Table, len(specs))
	for i, spec := range specs {
		li, ri, err := h.resolveLinkLocked(spec)
		if err != nil {
			return err
		}
		h.addPairLocked(spec, li, ri, feds[i])
		mts[i] = feds[i].MT()
	}
	folded, err := foldCut(h.cutLocked(0), mts)
	if err != nil {
		return err
	}
	for _, ms := range folded {
		h.clusters.Publish(ms)
	}
	part, err := h.clusters.Partition()
	if err != nil {
		return err
	}
	if !partitionsEqual(part, folded) {
		return fmt.Errorf("cluster store does not match the refolded pairwise matching tables")
	}
	return nil
}

// inParallel runs fn(0..n-1) on at most GOMAXPROCS (and at least two)
// workers pulling indices in order, and returns the error of the lowest
// index that failed.
func inParallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, max(runtime.GOMAXPROCS(0), 2)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func partitionsEqual(a, b [][]node) bool {
	return slices.EqualFunc(a, b, slices.Equal[[]node])
}
