// Hub snapshots: a chunked, incremental encoding of the federation
// state, and the only one. A snapshot is a *manifest* record plus one
// *section* per source, per pair and for the cluster partition, each
// section a content-addressed file under the data directory (the
// directory sink and the loader live in persist.go). A section is a run
// of CRC frames whose tuple/pair payloads are split across continuation
// chunks, so no frame approaches the WAL's frame cap no matter how
// large the hub grows; the manifest carries each section's SHA-256
// content address, chunk count and item count.
//
// Three properties fall out of the sectioned shape:
//
//   - Capture is per-section under briefly-held locks. A consistent cut
//     is just the per-source tuple counts, per-pair matching-table
//     lengths and the WAL watermark, taken in O(sources+pairs) under
//     the commit locks; the relations and matching tables are
//     append-only under those locks, so each section's content can be
//     copied later, one section at a time, holding the cluster lock
//     only long enough to copy that section's slice headers. Commits
//     never stall behind an O(hub) copy.
//
//   - Snapshots are incremental. Sections are content-addressed, so a
//     writer that remembers the previous manifest carries unchanged
//     sections forward by reference (same item count ⇒ same content,
//     by append-onlyness within one directory's lineage) and writes
//     only what changed — steady-state snapshot cost is proportional
//     to change, not to hub size.
//
//   - Loading parallelises. Section files are read concurrently, so
//     independent sections are decoded and their relations rebuilt in
//     parallel, and the pairwise federations are re-verified
//     concurrently before the sequential cluster fold.
//
// Loading fails closed: frame CRCs, per-section content hashes and
// chunk/item counts are verified against the manifest; every schema,
// ILFD and rule is re-validated by its domain constructor; every
// pairwise federation is rebuilt through federate.Restore (which
// verifies the rebuilt matching table equals the saved one); and the
// cluster partition refolded from the pairwise tables must equal the
// saved partition.
package hub

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"sort"
	"sync"

	"entityid/internal/derive"
	"entityid/internal/federate"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/store"
	"entityid/internal/wal"
)

// matchPair converts the snapshot's compact pair form.
func matchPair(p [2]int) match.Pair { return match.Pair{RIndex: p[0], SIndex: p[1]} }

// The section kinds (and the v2 marker of manifest records).
const (
	secSource   = "source"
	secPair     = "pair"
	secClusters = "clusters"
	secManifest = "manifest"

	snapFormat = 2
)

// snapManifest is the manifest record: the snapshot's watermark and the
// ordered section directory. Its frame sequence number is watermark+1,
// so the zero watermark still frames validly.
type snapManifest struct {
	V2        string        `json:"v2"` // always "manifest"
	Format    int           `json:"format"`
	Watermark uint64        `json:"watermark"`
	Sections  []snapSection `json:"sections"`
}

// snapSection is one manifest entry: the section's identity, logical
// size and content address.
type snapSection struct {
	Kind string `json:"kind"`
	// Name identifies a source section; Left/Right identify a pair
	// section.
	Name  string `json:"name,omitempty"`
	Left  string `json:"left,omitempty"`
	Right string `json:"right,omitempty"`
	// Items counts the section's logical entries (tuples, matching
	// pairs, clusters). RLen/SLen are a pair section's side lengths at
	// the cut.
	Items int `json:"items"`
	RLen  int `json:"rlen,omitempty"`
	SLen  int `json:"slen,omitempty"`
	// Chunks, Bytes and Hash describe the encoded frames: chunk count,
	// framed byte count, and hex SHA-256 over the frame bytes.
	Chunks int    `json:"chunks"`
	Bytes  int64  `json:"bytes"`
	Hash   string `json:"hash"`
}

// sameContent reports whether two section entries describe identical
// logical content for carry-forward purposes: same identity and item
// counts. Relations and matching tables are append-only, so within one
// data directory's lineage equal counts imply equal content.
func (s snapSection) sameContent(o snapSection) bool {
	return s.Kind == o.Kind && s.Name == o.Name && s.Left == o.Left && s.Right == o.Right &&
		s.Items == o.Items && s.RLen == o.RLen && s.SLen == o.SLen
}

// snapChunk is one section frame's payload. The first chunk of a
// section carries its header (name+schema, or link+side lengths); every
// chunk carries a slice of the section's items; the final chunk is
// marked Last.
type snapChunk struct {
	V2    string `json:"v2"` // section kind
	Sec   int    `json:"sec"`
	Chunk int    `json:"chunk"` // 1-based; equals the frame sequence number
	Last  bool   `json:"last,omitempty"`

	// Source sections.
	Name   string           `json:"name,omitempty"`
	Schema *wal.SchemaRec   `json:"schema,omitempty"`
	Tuples [][]wal.ValueRec `json:"tuples,omitempty"`

	// Pair sections.
	Link *wal.LinkRec `json:"link,omitempty"`
	RLen int          `json:"rlen,omitempty"`
	SLen int          `json:"slen,omitempty"`
	MT   [][2]int     `json:"mt,omitempty"`

	// Clusters section.
	Clusters [][][2]int `json:"clusters,omitempty"`
}

// ---------------------------------------------------------------------
// Consistent cut + per-section capture
// ---------------------------------------------------------------------

// cutSource is one source at the cut: the state pointer (stable — the
// topology only grows) and its tuple count.
type cutSource struct {
	s *sourceState
	n int
}

// cutPair is one pair at the cut: matching-table length and side
// lengths.
type cutPair struct {
	p          *pairState
	n          int
	rlen, slen int
}

// snapshotCut is a consistent cut of the hub: O(sources+pairs) counts
// plus the covered WAL watermark. Because every structure it points at
// is append-only under the commit locks, the cut pins the exact state
// at the watermark without copying any content.
type snapshotCut struct {
	watermark uint64
	sources   []cutSource
	pairs     []cutPair
}

// cutLocked builds a cut. Callers hold h.mu (at least shared) and
// h.commitMu — the commit locks — so the counts are mutually
// consistent and consistent with the watermark.
func (h *Hub) cutLocked(watermark uint64) *snapshotCut {
	cut := &snapshotCut{watermark: watermark}
	for _, s := range h.sources {
		cut.sources = append(cut.sources, cutSource{s: s, n: s.rel.Len()})
	}
	for _, p := range h.pairs {
		// p.mtLen is written under the commit lock (held here), so this
		// read is consistent without paging a cold pair in.
		cut.pairs = append(cut.pairs, cutPair{
			p: p, n: p.mtLen, rlen: h.sources[p.left].rel.Len(), slen: h.sources[p.right].rel.Len(),
		})
	}
	return cut
}

// copySourceTuples copies one source section's tuple headers from the
// published view — the view at the cut already covers cs.n and its
// prefix is immutable, so the copy takes no lock at all and commits
// never stall behind it.
func (h *Hub) copySourceTuples(cs cutSource) []relation.Tuple {
	v := cs.s.view.Load()
	out := make([]relation.Tuple, cs.n)
	copy(out, v.tuples[:cs.n])
	return out
}

// copyPairMT copies one pair section's matching-table prefix and sorts
// it canonically off-lock. A hot pair's prefix is read under a
// briefly-held commit lock; a cold pair's is read from the backend's
// pair store, whose spilled table is stored in commit order at a
// length ≥ the cut (the pair can only have been spilled at or after
// the cut was taken, and spilling requires the commit lock's ordering
// of mutations), so the length-n prefix is exactly the cut's table.
// The federation pointer loaded here may be spilled concurrently — the
// object itself is never mutated after the spill, so reading its
// frozen (≥ cut) state remains correct.
func (h *Hub) copyPairMT(cp cutPair) ([]match.Pair, error) {
	var ps []match.Pair
	if fed := cp.p.fed.Load(); fed != nil {
		h.commitMu.Lock()
		ps = fed.PairsPrefix(cp.n)
		h.commitMu.Unlock()
	} else {
		tab, err := h.backend.Pairs().Load(cp.p.id)
		if err != nil {
			return nil, fmt.Errorf("hub: snapshot pair %q-%q: %w", cp.p.spec.Left, cp.p.spec.Right, err)
		}
		if len(tab.Pairs) < cp.n {
			return nil, fmt.Errorf("hub: snapshot pair %q-%q: spilled table has %d pairs, cut expects %d",
				cp.p.spec.Left, cp.p.spec.Right, len(tab.Pairs), cp.n)
		}
		ps = append([]match.Pair(nil), tab.Pairs[:cp.n]...)
	}
	federate.SortPairs(ps)
	return ps, nil
}

// foldPartition refolds the cut's matching tables into the canonical
// non-singleton cluster partition — pure off-lock work that reproduces
// exactly what partitionLocked would have returned at the cut, by the
// invariant (verified on every load) that the live cluster store equals
// the transitive closure of the pairwise tables.
func foldPartition(cut *snapshotCut, mts [][]match.Pair) [][][2]int {
	cs := newClusterSet()
	for i, cp := range cut.pairs {
		for _, pr := range mts[i] {
			cs.union(node{Src: cp.p.left, Idx: pr.RIndex}, node{Src: cp.p.right, Idx: pr.SIndex})
		}
	}
	byRoot := map[node][]node{}
	for n := range cs.parent {
		root := cs.find(n)
		byRoot[root] = append(byRoot[root], n)
	}
	return canonicalPartition(byRoot)
}

// canonicalPartition renders non-singleton clusters canonically:
// members sorted by (source, index), clusters sorted by first member.
func canonicalPartition(byRoot map[node][]node) [][][2]int {
	var out [][][2]int
	for _, ns := range byRoot {
		if len(ns) < 2 {
			continue
		}
		sortNodes(ns)
		c := make([][2]int, len(ns))
		for i, n := range ns {
			c[i] = [2]int{n.Src, n.Idx}
		}
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0][0] != out[b][0][0] {
			return out[a][0][0] < out[b][0][0]
		}
		return out[a][0][1] < out[b][0][1]
	})
	return out
}

// partitionLocked returns the canonical non-singleton cluster
// partition of the live store. Callers hold h.commitMu (and h.mu at
// least shared).
func (h *Hub) partitionLocked() ([][][2]int, error) {
	part, err := h.clusters.Partition()
	if err != nil {
		return nil, err
	}
	out := make([][][2]int, len(part))
	for i, ms := range part {
		c := make([][2]int, len(ms))
		for j, m := range ms {
			c[j] = [2]int{m.Src, m.Idx}
		}
		out[i] = c
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Section encoding
// ---------------------------------------------------------------------

// chunkItems abstracts the three section bodies for size-budgeted
// chunking: tuple lists, matching-pair lists, cluster lists.
type chunkItems interface {
	len() int
	// estimate approximates item i's encoded size; it only needs to be
	// deterministic and roughly proportional.
	estimate(i int) int
	// put encodes items [lo, hi) into the chunk.
	put(c *snapChunk, lo, hi int)
}

type tupleItems []relation.Tuple

func (t tupleItems) len() int { return len(t) }
func (t tupleItems) estimate(i int) int {
	n := 4
	for _, v := range t[i] {
		if v.IsNull() {
			n += 12
		} else {
			n += len(v.Kind().String()) + len(v.String()) + 16
		}
	}
	return n
}
func (t tupleItems) put(c *snapChunk, lo, hi int) {
	c.Tuples = make([][]wal.ValueRec, hi-lo)
	for i := lo; i < hi; i++ {
		c.Tuples[i-lo] = wal.EncodeTuple(t[i])
	}
}

type mtItems []match.Pair

func (m mtItems) len() int         { return len(m) }
func (m mtItems) estimate(int) int { return 24 }
func (m mtItems) put(c *snapChunk, lo, hi int) {
	c.MT = make([][2]int, hi-lo)
	for i := lo; i < hi; i++ {
		c.MT[i-lo] = [2]int{m[i].RIndex, m[i].SIndex}
	}
}

type clusterItems [][][2]int

func (cl clusterItems) len() int           { return len(cl) }
func (cl clusterItems) estimate(i int) int { return 4 + 24*len(cl[i]) }
func (cl clusterItems) put(c *snapChunk, lo, hi int) {
	c.Clusters = cl[lo:hi:hi]
}

// sectionBody is the captured content of one section, ready to encode.
type sectionBody struct {
	kind   string
	sec    int
	name   string
	schema *wal.SchemaRec
	link   *wal.LinkRec
	rlen   int
	slen   int
	items  chunkItems
}

// writeChunked splits items into budget-sized runs, encoding each via
// encode and handing the payload to emit. The estimator is
// approximate, so a run whose encoded payload still overflows the
// frame cap is halved until it fits (a single item larger than the cap
// is unrepresentable and fails loudly at the frame encoder). The split
// is deterministic for given items and budget, so equal content always
// yields equal bytes. Shared by snapshot sections and chunked
// AddSource log groups.
func writeChunked(items chunkItems, budget int, encode func(lo, hi int, first, last bool) ([]byte, error), emit func([]byte) error) error {
	if budget <= 0 {
		budget = wal.DefaultChunkPayload
	}
	// Leave halving headroom under the frame cap even when the budget
	// override is set recklessly high.
	if max := wal.FrameCap() / 2; budget > max {
		budget = max
	}
	total := items.len()
	lo := 0
	for first := true; first || lo < total; first = false {
		hi, est := lo, 0
		for hi < total {
			est += items.estimate(hi)
			hi++
			if est >= budget {
				break
			}
		}
		for {
			payload, err := encode(lo, hi, first, hi == total)
			if err != nil {
				return err
			}
			if len(payload) > wal.FrameCap() && hi-lo > 1 {
				hi = lo + (hi-lo)/2
				continue
			}
			if err := emit(payload); err != nil {
				return err
			}
			break
		}
		lo = hi
	}
	return nil
}

// writeSectionChunks encodes the body as budget-sized chunks through
// the section writer.
func writeSectionChunks(sw *wal.SectionWriter, b *sectionBody, budget int) error {
	encode := func(lo, hi int, first, last bool) ([]byte, error) {
		c := snapChunk{V2: b.kind, Sec: b.sec, Chunk: sw.Chunks() + 1, Last: last}
		if first {
			c.Name, c.Schema, c.Link, c.RLen, c.SLen = b.name, b.schema, b.link, b.rlen, b.slen
		}
		if hi > lo {
			b.items.put(&c, lo, hi)
		}
		payload, err := json.Marshal(c)
		if err != nil {
			return nil, fmt.Errorf("hub: snapshot: %w", err)
		}
		return payload, nil
	}
	emit := func(payload []byte) error {
		if err := sw.WriteChunk(payload); err != nil {
			return fmt.Errorf("hub: snapshot: %w", err)
		}
		return nil
	}
	return writeChunked(b.items, budget, encode, emit)
}

// writeSnapshotSections drives a snapshot at the given cut through the
// directory sink: capture each section under briefly-held locks,
// encode, write (or carry forward), then commit the manifest.
func (h *Hub) writeSnapshotSections(cut *snapshotCut, sink *dirSink, budget int) (*snapManifest, error) {
	man := &snapManifest{V2: secManifest, Format: snapFormat, Watermark: cut.watermark}
	allCarried := true
	for i, cs := range cut.sources {
		meta := snapSection{Kind: secSource, Name: cs.s.name, Items: cs.n}
		if !sink.reuse(&meta) {
			allCarried = false
			sch := wal.EncodeSchema(cs.s.rel.Schema())
			body := &sectionBody{
				kind: secSource, sec: i, name: cs.s.name, schema: &sch,
				items: tupleItems(h.copySourceTuples(cs)),
			}
			if err := sink.write(&meta, body, budget); err != nil {
				return nil, err
			}
		}
		man.Sections = append(man.Sections, meta)
	}
	mts := make([][]match.Pair, len(cut.pairs))
	for i, cp := range cut.pairs {
		meta := snapSection{
			Kind: secPair, Left: cp.p.spec.Left, Right: cp.p.spec.Right,
			Items: cp.n, RLen: cp.rlen, SLen: cp.slen,
		}
		if !sink.reuse(&meta) {
			allCarried = false
			var err error
			if mts[i], err = h.copyPairMT(cp); err != nil {
				return nil, err
			}
			link := linkRecFromSpec(cp.p.spec)
			body := &sectionBody{
				kind: secPair, sec: len(man.Sections), link: &link,
				rlen: cp.rlen, slen: cp.slen, items: mtItems(mts[i]),
			}
			if err := sink.write(&meta, body, budget); err != nil {
				return nil, err
			}
		}
		man.Sections = append(man.Sections, meta)
	}
	// The cluster partition is a function of the matching tables and
	// side lengths, so it is unchanged exactly when every other section
	// was carried forward.
	clMeta := snapSection{Kind: secClusters}
	if !allCarried || !sink.reuse(&clMeta) {
		for i := range mts {
			if mts[i] == nil {
				var err error
				if mts[i], err = h.copyPairMT(cut.pairs[i]); err != nil {
					return nil, err
				}
			}
		}
		clusters := foldPartition(cut, mts)
		clMeta.Items = len(clusters)
		body := &sectionBody{kind: secClusters, sec: len(man.Sections), items: clusterItems(clusters)}
		if err := sink.write(&clMeta, body, budget); err != nil {
			return nil, err
		}
	}
	man.Sections = append(man.Sections, clMeta)
	if err := sink.finish(man); err != nil {
		return nil, err
	}
	return man, nil
}

// encodeManifest frames a manifest under sequence watermark+1.
func encodeManifest(man *snapManifest) ([]byte, error) {
	payload, err := json.Marshal(man)
	if err != nil {
		return nil, fmt.Errorf("hub: snapshot: %w", err)
	}
	frame, err := wal.EncodeRecord(man.Watermark+1, payload)
	if err != nil {
		return nil, fmt.Errorf("hub: snapshot: %w", err)
	}
	return frame, nil
}

// decodeManifest validates a manifest record.
func decodeManifest(rec wal.Record) (*snapManifest, error) {
	var man snapManifest
	if err := json.Unmarshal(rec.Payload, &man); err != nil {
		return nil, fmt.Errorf("hub: snapshot manifest: %w", err)
	}
	if man.V2 != secManifest || man.Format != snapFormat {
		return nil, fmt.Errorf("hub: snapshot manifest: unsupported format %d", man.Format)
	}
	if rec.Seq != man.Watermark+1 {
		return nil, fmt.Errorf("hub: snapshot manifest: frame sequence %d does not match watermark %d", rec.Seq, man.Watermark)
	}
	return &man, nil
}

// ---------------------------------------------------------------------
// Section decoding
// ---------------------------------------------------------------------

// decSource is a decoded source section.
type decSource struct {
	name string
	rel  *relation.Relation
}

// decPair is a decoded pair section.
type decPair struct {
	link       wal.LinkRec
	rlen, slen int
	mt         []match.Pair
}

// decSection is one fully decoded section plus the manifest entry it
// reproduces (identity, counts, content address), for verification.
type decSection struct {
	meta     snapSection
	src      *decSource
	pair     *decPair
	clusters [][][2]int
}

// sectionAccum decodes one section chunk-at-a-time: each chunk is
// applied as it arrives (tuples are inserted into the relation
// incrementally, so a jumbo source never exists as one decoded buffer),
// and the section's content address — the SHA-256 of the raw frame
// bytes exactly as read — accumulates as it goes.
//
// The Sec ordinal embedded in chunks is validated for internal
// consistency only (every chunk of a section must declare the same
// one), not against the manifest position: a carried-forward section
// file keeps the ordinal it was written under even after the topology
// grows around it; its identity is its content address.
type sectionAccum struct {
	sec    int       // position in the manifest, for error messages
	decSec int       // the Sec ordinal the section's chunks declare
	sum    hash.Hash // sha256 over the raw frame bytes
	chunks int
	bytes  int64
	meta   snapSection
	done   bool

	src      *decSource
	pair     *decPair
	clusters [][][2]int
}

func newSectionAccum(sec int) *sectionAccum {
	return &sectionAccum{sec: sec, sum: sha256.New()}
}

func (a *sectionAccum) addChunk(rec wal.Record, raw []byte) error {
	if a.done {
		return fmt.Errorf("hub: snapshot section %d: chunk after final chunk", a.sec)
	}
	var c snapChunk
	if err := json.Unmarshal(rec.Payload, &c); err != nil {
		return fmt.Errorf("hub: snapshot section %d: %w", a.sec, err)
	}
	wantChunk := a.chunks + 1
	if wantChunk == 1 {
		a.decSec = c.Sec
	}
	if c.Sec != a.decSec || c.Chunk != wantChunk || uint64(c.Chunk) != rec.Seq {
		return fmt.Errorf("hub: snapshot section %d: chunk out of sequence (sec %d chunk %d, frame %d, want sec %d chunk %d)",
			a.sec, c.Sec, c.Chunk, rec.Seq, a.decSec, wantChunk)
	}
	if wantChunk == 1 {
		a.meta.Kind = c.V2
		switch c.V2 {
		case secSource:
			if c.Schema == nil {
				return fmt.Errorf("hub: snapshot section %d: source section without schema header", a.sec)
			}
			sch, err := wal.DecodeSchema(*c.Schema)
			if err != nil {
				return fmt.Errorf("hub: snapshot source %q: %w", c.Name, err)
			}
			a.src = &decSource{name: c.Name, rel: relation.New(sch)}
			a.meta.Name = c.Name
		case secPair:
			if c.Link == nil {
				return fmt.Errorf("hub: snapshot section %d: pair section without link header", a.sec)
			}
			a.pair = &decPair{link: *c.Link, rlen: c.RLen, slen: c.SLen}
			a.meta.Left, a.meta.Right = c.Link.Left, c.Link.Right
			a.meta.RLen, a.meta.SLen = c.RLen, c.SLen
		case secClusters:
		default:
			return fmt.Errorf("hub: snapshot section %d: unknown section kind %q", a.sec, c.V2)
		}
	} else if c.V2 != a.meta.Kind {
		return fmt.Errorf("hub: snapshot section %d: chunk kind %q in %q section", a.sec, c.V2, a.meta.Kind)
	}
	switch a.meta.Kind {
	case secSource:
		for i, tr := range c.Tuples {
			t, err := wal.DecodeTuple(tr)
			if err != nil {
				return fmt.Errorf("hub: snapshot source %q tuple %d: %w", a.src.name, a.meta.Items+i, err)
			}
			if err := a.src.rel.Insert(t); err != nil {
				return fmt.Errorf("hub: snapshot source %q tuple %d: %w", a.src.name, a.meta.Items+i, err)
			}
		}
		a.meta.Items += len(c.Tuples)
	case secPair:
		for _, pr := range c.MT {
			a.pair.mt = append(a.pair.mt, matchPair(pr))
		}
		a.meta.Items += len(c.MT)
	case secClusters:
		a.clusters = append(a.clusters, c.Clusters...)
		a.meta.Items += len(c.Clusters)
	}
	a.sum.Write(raw)
	a.chunks++
	a.bytes += int64(len(raw))
	if c.Last {
		a.done = true
	}
	return nil
}

// finish validates terminal state and returns the decoded section.
func (a *sectionAccum) finish() (*decSection, error) {
	if !a.done {
		return nil, fmt.Errorf("hub: snapshot section %d: truncated (no final chunk)", a.sec)
	}
	a.meta.Chunks, a.meta.Bytes, a.meta.Hash = a.chunks, a.bytes, hex.EncodeToString(a.sum.Sum(nil))
	return &decSection{meta: a.meta, src: a.src, pair: a.pair, clusters: a.clusters}, nil
}

// matches verifies a decoded section against its manifest entry.
func (d *decSection) matches(want snapSection) error {
	got := d.meta
	if !got.sameContent(want) || got.Chunks != want.Chunks || got.Bytes != want.Bytes || got.Hash != want.Hash {
		return fmt.Errorf("hub: snapshot section %s %s%s-%s does not match its manifest entry",
			want.Kind, want.Name, want.Left, want.Right)
	}
	return nil
}

// ---------------------------------------------------------------------
// Assembly
// ---------------------------------------------------------------------

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
			if err := h.addSourceOwned(s.src.name, s.src.rel); err != nil {
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
	errs := make([]error, len(pairs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxParallel())
	for i, dp := range pairs {
		wg.Add(1)
		go func(i int, dp *decPair) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			spec, err := specFromLinkRec(dp.link)
			if err != nil {
				errs[i] = fmt.Errorf("hub: load snapshot: link %q-%q: %w", dp.link.Left, dp.link.Right, err)
				return
			}
			li, ok := h.byName[spec.Left]
			if !ok {
				errs[i] = fmt.Errorf("hub: load snapshot: link references unknown source %q", spec.Left)
				return
			}
			ri, ok := h.byName[spec.Right]
			if !ok {
				errs[i] = fmt.Errorf("hub: load snapshot: link references unknown source %q", spec.Right)
				return
			}
			st := federate.State{RLen: dp.rlen, SLen: dp.slen, Pairs: dp.mt}
			fed, err := federate.Restore(h.matchConfig(li, ri, spec), st)
			if err != nil {
				errs[i] = fmt.Errorf("hub: load snapshot: link %q-%q: %w", spec.Left, spec.Right, err)
				return
			}
			specs[i], feds[i] = spec, fed
		}(i, dp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range pairs {
		h.mu.Lock()
		err := h.linkRestored(specs[i], feds[i])
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

// maxParallel bounds concurrent section work during loads.
func maxParallel() int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	return n
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

// linkRecFromSpec converts a pair spec into its WAL/snapshot record.
func linkRecFromSpec(spec PairSpec) wal.LinkRec {
	return wal.LinkRec{
		Left:         spec.Left,
		Right:        spec.Right,
		Attrs:        wal.EncodeAttrMaps(spec.Attrs),
		ExtKey:       spec.ExtKey,
		ILFDs:        wal.EncodeILFDs(spec.ILFDs),
		Identity:     wal.EncodeIdentityRules(spec.Identity),
		Distinct:     wal.EncodeDistinctnessRules(spec.Distinct),
		DeriveMode:   int(spec.DeriveMode),
		DisableProp1: spec.DisableProp1,
	}
}

// specFromLinkRec restores a pair spec, re-validating ILFDs and rules.
func specFromLinkRec(r wal.LinkRec) (PairSpec, error) {
	ilfds, err := wal.DecodeILFDs(r.ILFDs)
	if err != nil {
		return PairSpec{}, err
	}
	identity, err := wal.DecodeIdentityRules(r.Identity)
	if err != nil {
		return PairSpec{}, err
	}
	distinct, err := wal.DecodeDistinctnessRules(r.Distinct)
	if err != nil {
		return PairSpec{}, err
	}
	if r.DeriveMode != int(derive.FirstMatch) && r.DeriveMode != int(derive.Fixpoint) {
		return PairSpec{}, fmt.Errorf("hub: unknown derive mode %d", r.DeriveMode)
	}
	return PairSpec{
		Left:         r.Left,
		Right:        r.Right,
		Attrs:        wal.DecodeAttrMaps(r.Attrs),
		ExtKey:       r.ExtKey,
		ILFDs:        ilfds,
		Identity:     identity,
		Distinct:     distinct,
		DeriveMode:   derive.Mode(r.DeriveMode),
		DisableProp1: r.DisableProp1,
	}, nil
}
