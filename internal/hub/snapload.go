// The snapshot loader: the directory store read back. The data
// directory holds a manifest file plus one content-addressed section
// file per source/pair/partition under snapsecs/ (written by
// snapwriter.go, in the format of snapshot.go). Loading parallelises —
// section files are read concurrently, so independent sections are
// decoded and their relations rebuilt in parallel, and the pairwise
// federations are re-verified concurrently before the sequential
// cluster fold — and fails closed: frame CRCs, per-section content
// hashes and chunk/item counts are verified against the manifest;
// every schema, ILFD and rule is re-validated by its domain
// constructor; every pairwise federation is rebuilt through
// federate.Restore (which verifies the rebuilt matching table equals
// the saved one); and the cluster partition refolded from the pairwise
// tables must equal the saved partition.
package hub

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"

	"entityid/internal/federate"
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

// secPath names a section's content-addressed file.
func secPath(dir, hash string) string {
	return filepath.Join(dir, snapSecDir, hash+snapSecSuffix)
}

// loadSnapshotSections rebuilds a hub from a manifest's section files,
// decoding independent sections in parallel and verifying each file's
// content hash, chunk count and item counts against the manifest. The
// hub is assembled onto the given storage backend (nil means memory).
func loadSnapshotSections(fsys wal.FS, dir string, man *snapManifest, b store.Backend) (*Hub, error) {
	secs := make([]*decSection, len(man.Sections))
	err := inParallel(len(secs), func(i int) (err error) {
		secs[i], err = readSectionFile(fsys, dir, i, man.Sections[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return assembleHub(secs, b)
}

// readSectionFile decodes one section file and verifies the result —
// identity, counts, content hash — against its manifest entry.
func readSectionFile(fsys wal.FS, dir string, sec int, want snapSection) (*decSection, error) {
	f, err := fsys.Open(secPath(dir, want.Hash))
	if err != nil {
		return nil, fmt.Errorf("snapshot section: %w", err)
	}
	defer f.Close()
	d, err := decodeSection(f, sec)
	if err != nil {
		return nil, err
	}
	if err := d.matches(want); err != nil {
		return nil, err
	}
	return d, nil
}

// decodeSection streams one section's bytes through the chunk decoder.
func decodeSection(r io.Reader, sec int) (*decSection, error) {
	a := newSectionAccum(sec)
	scanner := wal.NewFrameScanner(r)
	for !a.done {
		rec, raw, err := scanner.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("hub: snapshot section %d: %w", sec, err)
		}
		if err := a.addChunk(rec, raw); err != nil {
			return nil, err
		}
	}
	if a.done {
		if _, _, err := scanner.Next(); err != io.EOF {
			return nil, fmt.Errorf("hub: snapshot section %d: trailing frames after final chunk", sec)
		}
	}
	return a.finish()
}

// assembleHub builds a hub from decoded sections onto the given
// storage backend (nil means in-memory): sources registered in section
// order, pairwise federations re-verified in parallel through
// federate.Restore — each over the loaded relations themselves, which
// the federations only read, so concurrent restores share them without
// a copy — links folded sequentially, and the saved cluster partition
// checked against the refold.
func assembleHub(secs []*decSection, b store.Backend) (*Hub, error) {
	h := NewWithBackend(b)
	var pairs []*decPair
	var clusters [][][2]int
	clustersSeen := false
	for _, s := range secs {
		switch s.meta.Kind {
		case secSource:
			if err := h.AddSource(s.src.name, s.src.rel); err != nil {
				return nil, fmt.Errorf("hub: load snapshot: %w", err)
			}
		case secPair:
			pairs = append(pairs, s.pair)
		case secClusters:
			if clustersSeen {
				return nil, fmt.Errorf("hub: load snapshot: duplicate clusters section")
			}
			clustersSeen = true
			clusters = s.clusters
		}
	}
	if !clustersSeen {
		return nil, fmt.Errorf("hub: load snapshot: no clusters section")
	}
	// Re-verify every pairwise federation concurrently: Restore rebuilds
	// the matching table from the loaded relations and proves it equals
	// the saved one — the expensive, independent step.
	specs := make([]PairSpec, len(pairs))
	feds := make([]*federate.Federation, len(pairs))
	err := inParallel(len(pairs), func(i int) error {
		dp := pairs[i]
		spec, err := specFromLinkRec(dp.link)
		if err != nil {
			return fmt.Errorf("hub: load snapshot: link %q-%q: %w", dp.link.Left, dp.link.Right, err)
		}
		li, ok := h.byName[spec.Left]
		if !ok {
			return fmt.Errorf("hub: load snapshot: link references unknown source %q", spec.Left)
		}
		ri, ok := h.byName[spec.Right]
		if !ok {
			return fmt.Errorf("hub: load snapshot: link references unknown source %q", spec.Right)
		}
		st := federate.State{RLen: dp.rlen, SLen: dp.slen, Pairs: dp.mt}
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
	for i := range pairs {
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
	refolded, perr := h.partitionLocked()
	h.commitMu.Unlock()
	h.mu.RUnlock()
	if perr != nil {
		return nil, fmt.Errorf("hub: load snapshot: %w", perr)
	}
	if !partitionsEqual(refolded, clusters) {
		return nil, fmt.Errorf("hub: load snapshot: cluster store does not match the refolded pairwise matching tables")
	}
	return h, nil
}

// inParallel runs fn(0..n-1) on at most GOMAXPROCS (and at least two)
// goroutines and returns the error of the lowest index that failed.
func inParallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(runtime.GOMAXPROCS(0), 2))
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i)
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
