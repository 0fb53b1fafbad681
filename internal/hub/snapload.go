// The snapshot loader: the directory store read back. The data
// directory holds a manifest file plus one content-addressed file per
// run of each source's tuples and each pair's matching table under
// snapsecs/ (written by snapwriter.go, in the format of snapshot.go).
// Loading parallelises — run files are read and decoded on a fixed set
// of workers, the relations are rebuilt one source per worker, and the
// pairwise federations are re-verified concurrently before the
// sequential cluster fold — and fails closed: frame CRCs, per-run
// content hashes, chunk and item counts, and each run's declared
// sequence and position are verified against the manifest, whose run
// directories must be dense and full but for each sequence's last run;
// every schema, ILFD and rule is re-validated by its domain
// constructor; every pairwise federation is rebuilt through
// federate.Restore (which verifies the rebuilt matching table equals
// the saved one); and the partition the cluster store folded while the
// links registered must equal foldPartition of the loaded tables — the
// function that cut the partition section when snapshots still stored
// one.
package hub

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

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
// memory).
func loadSnapshotSections(fsys wal.FS, dir string, man *snapManifest, b store.Backend) (*Hub, error) {
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
	return assembleHub(man, schemas, seqs[:len(man.Sources)], seqs[len(man.Sources):], b)
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
// table's saved commit order, which later commits continue; links
// folded sequentially; and the partition that fold left in the cluster
// store checked against foldPartition of the loaded tables.
func assembleHub(man *snapManifest, schemas []*schema.Schema, srcRuns, pairRuns [][]*decRun, b store.Backend) (*Hub, error) {
	mts := make([][]match.Pair, len(man.Pairs))
	for i, runs := range pairRuns {
		for _, r := range runs {
			mts[i] = append(mts[i], r.mt...)
		}
	}
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
		st := federate.State{RLen: dp.RLen, SLen: dp.SLen, Pairs: mts[i]}
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
	for i := range specs {
		h.mu.Lock()
		li, ri, err := h.resolveLinkLocked(specs[i])
		if err == nil {
			err = h.registerLinkLocked(specs[i], li, ri, feds[i])
		}
		h.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("hub: load snapshot: %w", err)
		}
	}
	h.mu.RLock()
	h.commitMu.Lock()
	cut := h.cutLocked(0)
	folded, perr := h.partitionLocked()
	h.commitMu.Unlock()
	h.mu.RUnlock()
	if perr != nil {
		return nil, fmt.Errorf("hub: load snapshot: %w", perr)
	}
	if !partitionsEqual(folded, foldPartition(cut, mts)) {
		return nil, fmt.Errorf("hub: load snapshot: cluster store does not match the refolded pairwise matching tables")
	}
	return h, nil
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

func partitionsEqual(a, b [][][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
