// Rebuilding a hub from its data directory: the snapshot loader, and the
// one path Open takes from the snapshot and the log tail to a hub. The
// data directory holds the write-ahead log, a manifest file and the
// content-addressed segment files under snapsecs/ (written by
// snapwriter.go, in the format of snapshot.go). Recovery runs in four
// phases, each timed in RecoveryInfo: segment decode (each file read
// whole and its run records decoded on a fixed set of workers, then each
// source's tuples, concatenated in segment order, admitted into its
// relation, not copied), log
// read (the whole log read and verified once, its tail decoded into the
// same relations, each tuple kept uncopied, persist.go; the log's run
// records and a segment's are read by one reader, wal.CutRun), pair build
// (each source's images — one per knowledge its links give it — extended
// once over the final relations, then every pair's matching result built
// once on two of them and verified, each step on parallel workers) and
// cluster fold. No matching table, no tail match and no partition is
// stored: a matching table is a function of the two relations (§4.2, and
// match's batch ≡ incremental), so one build per pair stands for every
// insert the snapshot and the log hold. Inside a link's cut — the
// snapshot's, or the one its link record made — the table comes back in
// Build's (R, S) order; past it, in the order the live hub committed it,
// rebuilt exactly from the records the tuples arrived by (commitOrder).
// One pass of the cluster fold (cluster.go) over all the tables, in log
// order, each union decided by store.CheckMerge, then publishes each
// component to the empty cluster store exactly once. Recovery fails
// closed: segment file sizes, frame CRCs, each run record's one spelling,
// per-segment content hashes, chunk counts, per-source item counts and
// each segment's declared position are verified against the manifest,
// every segment of which but the last must be sealed; every link must
// stand where the snapshot cut it; every schema, ILFD and rule is
// re-validated by its domain constructor; every rebuilt table must be
// covered exactly by the order recovery lists it in (match.Table.Reorder);
// a log whose tuples break §3.2 is refused at the record that completes
// the violation — a pairwise break with the pair build's error, at the
// latest record among the tuples it names and the link, a break across
// sources with the fold's, naming the link and pair; and the cluster
// store, read back, must hold exactly the components the fold published.
package hub

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"entityid/internal/match"
	"entityid/internal/relation"
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

// secPath names a segment's content-addressed file.
func secPath(dir, hash string) string {
	return filepath.Join(dir, snapSecDir, hash+snapSecSuffix)
}

// recovery is a hub Open is rebuilding: its sources and links
// registered in log order and its relations filled, its pairs not yet
// built.
type recovery struct {
	h *Hub
	// arrived[s] is when source s's tuples came; cuts[i] is where pair i's
	// table starts.
	arrived []arrivals
	cuts    []linkCut
	// row is scratch a logged tuple is read into to be admitted.
	row relation.Tuple
}

// arrivals holds the log record each tuple of a source was inserted by,
// from position first on; the tuples before it came with the snapshot or
// with the source's registration.
type arrivals struct {
	first int
	seqs  []uint64
}

// at returns the record tuple i arrived by, 0 for one older than the log
// tail.
func (a *arrivals) at(i int) uint64 {
	if i < a.first {
		return 0
	}
	return a.seqs[i-a.first]
}

// linkCut is where a pair's table starts: the two sides' lengths when the
// link was made, at its record seq — or, for a link the snapshot holds
// (seq 0), at the snapshot.
type linkCut struct {
	rlen, slen int
	seq        uint64
}

// addSource registers a source whose relation holds its tuples so far.
func (r *recovery) addSource(name string, rel *relation.Relation) error {
	if err := r.h.AddSource(name, rel); err != nil {
		return err
	}
	r.arrived = append(r.arrived, arrivals{first: rel.Len()})
	return nil
}

// link validates a link where it stands and registers it with no table
// yet, cut at the two sides' lengths now — which, for a link the snapshot
// holds, must be where the snapshot cut it.
func (r *recovery) link(spec PairSpec, cut linkCut) error {
	h := r.h
	h.mu.Lock()
	defer h.mu.Unlock()
	li, ri, err := h.resolveLinkLocked(spec)
	if err != nil {
		return err
	}
	rlen, slen := h.sources[li].rel.Len(), h.sources[ri].rel.Len()
	if cut.seq == 0 && (cut.rlen != rlen || cut.slen != slen) {
		return fmt.Errorf("link %q-%q: the snapshot cut it at %d and %d tuples, its sources hold %d and %d",
			spec.Left, spec.Right, cut.rlen, cut.slen, rlen, slen)
	}
	cut.rlen, cut.slen = rlen, slen
	h.addPairLocked(spec, li, ri, nil)
	r.cuts = append(r.cuts, cut)
	return nil
}

// loadSnapshot reads a manifest's segment files into the hub, decoding
// them in parallel and verifying each file's content hash, chunk count,
// item counts and declared position against the manifest: each source's
// tuples, concatenated in segment order, are admitted into its relation,
// one source per worker, and the sources registered in manifest order,
// then the links, each where the snapshot cut it.
func (r *recovery) loadSnapshot(fsys wal.FS, dir string, man *snapManifest, info *RecoveryInfo) error {
	start := time.Now()
	bases, err := man.checkSegments()
	if err != nil {
		return err
	}
	srcs := make([]segSource, len(man.Sources))
	for i, s := range man.Sources {
		srcs[i].name = s.Name
		if srcs[i].sch, err = wal.DecodeSchema(s.Schema); err != nil {
			return fmt.Errorf("hub: snapshot source %q: %w", s.Name, err)
		}
	}
	// froms[j][i] is how many tuples of source i the segments before j
	// hold: where segment j's lie in the source's relation.
	froms := make([][]int, len(man.Segments))
	next := make([]int, len(srcs))
	for j, g := range man.Segments {
		froms[j] = slices.Clone(next)
		for i, k := range g.Items {
			if i < len(next) {
				next[i] += k
			}
		}
	}
	segs := make([]*decSegment, len(man.Segments))
	err = inParallel(len(segs), func(j int) (err error) {
		segs[j], err = readSegmentFile(fsys, dir, j, bases[j], froms[j], man.Segments[j], srcs)
		return err
	})
	if err != nil {
		return err
	}
	// Every segment now holds the items its manifest entry counts. A
	// source's decoded rows, in segment order, are its relation's:
	// admitted, their cells copied and their string blocks adopted.
	rels := make([]*relation.Relation, len(man.Sources))
	err = inParallel(len(rels), func(i int) error {
		runs := make([]relation.Rows, len(segs))
		for j, g := range segs {
			runs[j] = g.rows[i]
		}
		rels[i] = relation.New(srcs[i].sch)
		if err := rels[i].InsertAll(runs...); err != nil {
			return fmt.Errorf("hub: snapshot source %q tuple %d: %w", srcs[i].name, rels[i].Len(), err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, src := range man.Sources {
		if err := r.addSource(src.Name, rels[i]); err != nil {
			return fmt.Errorf("hub: load snapshot: %w", err)
		}
	}
	for _, dp := range man.Pairs {
		spec, err := specFromLinkRec(dp.Link)
		if err == nil {
			err = r.link(spec, linkCut{rlen: dp.RLen, slen: dp.SLen})
		} else {
			err = fmt.Errorf("link %q-%q: %w", dp.Link.Left, dp.Link.Right, err)
		}
		if err != nil {
			return fmt.Errorf("hub: load snapshot: %w", err)
		}
	}
	info.DecodeTime = time.Since(start)
	return nil
}

// readSegmentFile reads segment j's file whole, once its size is the
// framed byte count its manifest entry records, decodes it against the
// manifest's sources and verifies the result — position, counts, content
// hash — against that entry: base items before it.
func readSegmentFile(fsys wal.FS, dir string, j, base int, from []int, want snapSegment, srcs []segSource) (*decSegment, error) {
	path := secPath(dir, want.Hash)
	fi, err := fsys.Stat(path)
	if err == nil && fi.Size() != want.Bytes {
		err = fmt.Errorf("the segment file holds %d bytes, its manifest entry %d", fi.Size(), want.Bytes)
	}
	var data []byte
	if err == nil {
		data, err = fsys.ReadFile(path)
	}
	var d *decSegment
	if err == nil {
		d, err = decodeSegment(data, srcs, from)
	}
	if err != nil {
		return nil, fmt.Errorf("hub: snapshot segment %d: %w", j, err)
	}
	if err := d.matches(j, base, want); err != nil {
		return nil, err
	}
	return d, nil
}

// finish builds every image once and then every pair once over the
// relations as read, each phase on parallel workers — over the relations
// themselves, which the images only read, so concurrent builds share them
// without a copy — and folds the clusters once (foldRestored). A pair
// reads the image another pair of its source already reads when the two
// agree on what fills it (imageFor), as Link would have it. readErr is
// where the read stopped: the builds and the fold cover the records
// before it, and a violation they find there, at an earlier record, is
// the failure reported.
func (r *recovery) finish(info *RecoveryInfo, readErr error) error {
	start := time.Now()
	h := r.h
	// Each pair's two images, and the images to extend: the first pair
	// that needs one makes it. A pair whose side does not resolve, or
	// whose image does not extend, fails with that error, as its Build
	// would.
	type pairImages struct {
		cfg  match.Config
		img  [2]int // into fresh
		fail error
	}
	var fresh []*match.Image
	kept := make([][]*match.Image, len(h.sources))
	pairs := make([]pairImages, len(h.pairs))
	for i, p := range h.pairs {
		pi := &pairs[i]
		pi.cfg = h.matchConfig(p.left, p.right, p.spec)
		for n, si := range []int{p.left, p.right} {
			im, isNew, err := imageFor(kept[si], pi.cfg, n == 0)
			if err != nil {
				pi.fail = err
				break
			}
			if isNew {
				kept[si], fresh = append(kept[si], im), append(fresh, im)
			}
			pi.img[n] = slices.Index(fresh, im)
		}
	}
	grown := make([]error, len(fresh))
	_ = inParallel(len(fresh), func(k int) error {
		_, grown[k] = fresh[k].Grow()
		return nil
	})
	builds := make([]pairBuild, len(h.pairs))
	err := inParallel(len(builds), func(i int) (err error) {
		pi := &pairs[i]
		if err = pi.fail; err == nil {
			if err = grown[pi.img[1]]; err == nil { // S′ first, as Build extends
				err = grown[pi.img[0]]
			}
		}
		if err != nil {
			return r.refused(i, err)
		}
		builds[i], err = r.build(i, pi.cfg, fresh[pi.img[0]], fresh[pi.img[1]])
		return err
	})
	info.RestoreTime, info.Images, info.Pairings = time.Since(start), len(fresh), len(builds)
	if err != nil {
		return err
	}
	start = time.Now()
	err = h.foldRestored(builds)
	info.FoldTime = time.Since(start)
	if err == nil {
		err = readErr
	}
	return err
}

// pairBuild is one pair built over the relations as read: its matching
// result and, per entry of its table, the record that made the pair — 0 for the
// pairs inside the snapshot's cut, the link record for those Link made,
// the later tuple's insert for the rest — which is the log's order.
type pairBuild struct {
	res  *match.Result
	keys []uint64
}

// build builds pair i of cfg on its images r and s and has its table
// adopt the order commitOrder lists it in.
func (r *recovery) build(i int, cfg match.Config, rim, sim *match.Image) (pairBuild, error) {
	res, err := buildPair(cfg, rim, sim)
	if err == nil {
		order, keys := r.commitOrder(i, res.MT)
		if err = res.MT.Reorder(order); err == nil {
			return pairBuild{res: res, keys: keys}, nil
		}
	}
	return pairBuild{}, r.refused(i, err)
}

// refused reports why pair i did not build, at the record that broke it:
// for a §3.2 violation (match.Violation) the latest of its tuples'
// records and the link's, else the link's — or, at record 0, the
// snapshot.
func (r *recovery) refused(i int, err error) error {
	p, seq := r.h.pairs[i], r.cuts[i].seq
	if v := (*match.Violation)(nil); errors.As(err, &v) {
		for _, ri := range v.R {
			seq = max(seq, r.arrived[p.left].at(ri))
		}
		for _, si := range v.S {
			seq = max(seq, r.arrived[p.right].at(si))
		}
	}
	if seq == 0 {
		return fmt.Errorf("hub: load snapshot: link %q-%q: %w", p.spec.Left, p.spec.Right, err)
	}
	return fmt.Errorf("record %d: hub: link %q-%q: %w", seq, p.spec.Left, p.spec.Right, err)
}

// commitOrder lists pair i's rebuilt table with each entry's record.
// First come the pairs inside the cut — the snapshot's, or the table Link
// made — in Build's (R, S) order. Every other pair was made by the insert
// of its later tuple, and an insert adds at most one pair to a table; so
// a walk over both sides' tuples past the cut, merged in log order, that
// takes each pair at its later tuple lists the rest in the order the live
// hub committed them, with no sort. Reorder checks that the list covers
// the table exactly.
func (r *recovery) commitOrder(i int, mt *match.Table) ([]match.Pair, []uint64) {
	p, cut := r.h.pairs[i], &r.cuts[i]
	order, keys := make([]match.Pair, 0, mt.Len()), make([]uint64, 0, mt.Len())
	for pr := range mt.All() {
		if pr.RIndex < cut.rlen && pr.SIndex < cut.slen {
			order = append(order, pr)
		}
	}
	for range order {
		keys = append(keys, cut.seq)
	}
	ra, sa := &r.arrived[p.left], &r.arrived[p.right]
	rn, sn := r.h.sources[p.left].rel.Len(), r.h.sources[p.right].rel.Len()
	var buf [1]int
	for ri, si := cut.rlen, cut.slen; ri < rn || si < sn; {
		if si == sn || ri < rn && ra.at(ri) < sa.at(si) {
			if m := mt.MatchesOfR(buf[:0], ri); len(m) > 0 && sa.at(m[0]) < ra.at(ri) {
				order, keys = append(order, match.Pair{RIndex: ri, SIndex: m[0]}), append(keys, ra.at(ri))
			}
			ri++
		} else {
			if m := mt.MatchesOfS(buf[:0], si); len(m) > 0 && ra.at(m[0]) < sa.at(si) {
				order, keys = append(order, match.Pair{RIndex: m[0], SIndex: si}), append(keys, sa.at(si))
			}
			si++
		}
	}
	return order, keys
}

// foldRestored hands every registered pair its built result and folds
// all their tables in one pass onto the still empty cluster store — in
// log order, each entry at its record, so a union the log breaks (§3.2
// lifted across sources) is refused at the record that made it — then
// republishes every source's view, publishes each component once and
// reads the store back: it must hold exactly the fold.
func (h *Hub) foldRestored(builds []pairBuild) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.commitMu.Lock()
	defer h.commitMu.Unlock()
	tables := make([]linkTable, len(builds))
	for i, b := range builds {
		tables[i] = linkTable{left: h.pairs[i].left, right: h.pairs[i].right, mt: b.res.MT, keys: b.keys}
	}
	folded, at, err := foldTables(h.sourceLens(), tables, nil, h.sourceName)
	switch {
	case err != nil && at > 0:
		return fmt.Errorf("record %d: hub: %w", at, err)
	case err != nil:
		return fmt.Errorf("hub: load snapshot: %w", err)
	}
	for i, b := range builds {
		h.setResult(h.pairs[i], b.res)
	}
	for _, s := range h.sources {
		s.publishView()
	}
	for _, ms := range folded {
		h.clusters.Publish(ms)
	}
	part, err := h.clusters.Partition()
	if err != nil {
		return fmt.Errorf("hub: %w", err)
	}
	if !partitionsEqual(part, folded) {
		return fmt.Errorf("hub: cluster store does not match the refolded pairwise matching tables")
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
