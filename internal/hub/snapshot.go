// Hub snapshots: a chunked, incremental encoding of the sources, and the
// only one. A snapshot is a *manifest* record plus *segments*: each
// segment a content-addressed file under the data directory (written by
// snapwriter.go at a cut snapcut.go captures, read back by snapload.go)
// that holds, for each source in registration order, the run of tuples
// the source gained since the segment before — so a source's tuples are
// its runs concatenated in segment order. Sources are append-only, so a
// snapshot writes what the hub gained since the last one as one segment,
// and each tuple is encoded, hashed, written and fsynced once. A segment
// *seals* at R items across all sources (snapSegItems): the last one,
// while it holds fewer, is rewritten merged with the next snapshot's
// tuples, so a snapshot costs its increment plus at most R tuples, and
// every segment but the last holds at least R. This file is what is in
// them. A segment file is a sequence of the log's run records
// (internal/wal/run.go), each in a CRC frame and none approaching the
// frame cap however the chunk budget is set, a source's records but its
// last marked "more": the tuples as the tuple codec's bytes, read against
// the schema of the source's manifest slot. A segment's frames are
// numbered from one past the items of the segments before it, one a
// chunk, so a file declares its position itself. The manifest carries
// each segment's SHA-256 content address, chunk count, byte count and
// per-source item counts, and — so that nothing that changes ever sits
// inside a sealed segment — each source's schema, each pair's link spec
// and the two side lengths the link was cut at. Nothing a load can
// rebuild is stored: a matching table is a function of its two relations
// (§4.2) and the cluster partition is the fold of the tables, so the
// loader computes both (snapload.go). The manifest, read once per open,
// is encoding/json's.
package hub

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/wal"
)

const (
	// secManifest marks manifest records.
	secManifest = "manifest"

	snapFormat = 7

	// snapSegItems is R, the items at which a segment seals. A snapshot
	// rewrites the last segment while it holds fewer — R/2 items it has
	// written before, on average, when snapshots come more often than R
	// tuples — and a snapshot of R or more tuples seals the segment it
	// writes; so R trades bytes rewritten under frequent small snapshots
	// against segments per item. At R = 1024 a snapshot per 1024 inserts
	// (read_cold's) writes one sealed segment and rewrites nothing.
	snapSegItems = 1024
)

// snapManifest is the manifest record: the snapshot's watermark, the
// item count its segments seal at, each source's schema in registration
// order, the segments in order and each pair's link and cut. Its frame
// sequence number is watermark+1, so the zero watermark still frames
// validly.
type snapManifest struct {
	V2        string        `json:"v2"` // always "manifest"
	Format    int           `json:"format"`
	Watermark uint64        `json:"watermark"`
	SegItems  int           `json:"seg_items"`
	Sources   []snapSource  `json:"sources"`
	Segments  []snapSegment `json:"segments"`
	Pairs     []snapPair    `json:"pairs"`
}

// snapSource is one source at the cut: its name and schema.
type snapSource struct {
	Name   string        `json:"name"`
	Schema wal.SchemaRec `json:"schema"`
}

// snapPair is one pair at the cut: its link and the side lengths its
// table was computed over, which the load rebuilds it from.
type snapPair struct {
	Link wal.LinkRec `json:"link"`
	RLen int         `json:"rlen"`
	SLen int         `json:"slen"`
}

// snapSegment is one segment's manifest entry: the tuples it holds of
// each source, in registration order up to the last source it holds any
// of, and the encoded frames' chunk count, framed byte count and hex
// SHA-256 — the segment file's name.
type snapSegment struct {
	Items  []int  `json:"items"`
	Chunks int    `json:"chunks"`
	Bytes  int64  `json:"bytes"`
	Hash   string `json:"hash"`
}

// total is how many items the segment holds.
func (g snapSegment) total() int {
	n := 0
	for _, k := range g.Items {
		n += k
	}
	return n
}

func (g snapSegment) equal(o snapSegment) bool {
	return slices.Equal(g.Items, o.Items) && g.Chunks == o.Chunks && g.Bytes == o.Bytes && g.Hash == o.Hash
}

// trimItems drops the trailing sources a segment holds none of: the one
// spelling of its item counts.
func trimItems(items []int) []int {
	for len(items) > 0 && items[len(items)-1] == 0 {
		items = items[:len(items)-1]
	}
	return items
}

// estimateTuple approximates the encoded size of row i of ts, for
// size-budgeted chunking; it only needs to be deterministic and roughly
// proportional.
func estimateTuple(ts relation.Rows, i int) int {
	n := 2
	for c := range ts.Arity() {
		n += len(ts.At(i, c).String()) + 3
	}
	return n
}

// writeChunked writes source's tuples as one run — budget-sized run
// records, each but the last marked more — handing each payload to emit,
// which copies it out. The estimator is approximate, so a record whose
// payload still overflows the frame cap is halved until it fits (a single
// tuple larger than the cap is unrepresentable and fails loudly at the
// frame encoder). The split is deterministic for given tuples and budget,
// so equal content always yields equal bytes. An empty run is one record.
// It is the one splitter: of a segment's runs and of a registration's
// seeds in the log.
func writeChunked(source string, tuples relation.Rows, budget int, emit func([]byte) error) error {
	if budget <= 0 {
		budget = wal.DefaultChunkPayload
	}
	// Leave halving headroom under the frame cap even when the budget
	// override is set recklessly high.
	if max := wal.FrameCap() / 2; budget > max {
		budget = max
	}
	var buf []byte
	total := tuples.Len()
	lo := 0
	for first := true; first || lo < total; first = false {
		hi, est := lo, 0
		for hi < total {
			est += estimateTuple(tuples, hi)
			hi++
			if est >= budget {
				break
			}
		}
		for {
			buf = wal.AppendRun(buf[:0], source, hi < total, tuples.Slice(lo, hi))
			if len(buf) > wal.FrameCap() && hi-lo > 1 {
				hi = lo + (hi-lo)/2
				continue
			}
			if err := emit(buf); err != nil {
				return err
			}
			break
		}
		lo = hi
	}
	return nil
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

// decodeManifest validates a manifest record. A manifest of another
// format is refused by both numbers and never read further: format 2's
// whole-sequence sections share nothing with runs but the frame, format
// 4's manifest names pair runs this build neither reads nor keeps, format
// 5's runs hold chunks spelled apart from the run record, and format 6
// keeps each source's tuples in runs of its own, one file per source and
// 1,024 tuples, where a segment holds every source's.
func decodeManifest(rec wal.Record) (*snapManifest, error) {
	var man snapManifest
	if err := json.Unmarshal(rec.Payload, &man); err != nil {
		return nil, fmt.Errorf("hub: snapshot manifest: %w", err)
	}
	if man.V2 != secManifest || man.Format != snapFormat {
		return nil, fmt.Errorf("hub: snapshot manifest: format %d, this build reads %d", man.Format, snapFormat)
	}
	if rec.Seq != man.Watermark+1 {
		return nil, fmt.Errorf("hub: snapshot manifest: frame sequence %d does not match watermark %d", rec.Seq, man.Watermark)
	}
	return &man, nil
}

// checkSegments holds the manifest's segments to what a writer sealing
// at SegItems leaves: each names at most the manifest's sources and holds
// at least one item, and every one but the last at least SegItems. It
// returns each segment's base: the items of the segments before it.
func (m *snapManifest) checkSegments() ([]int, error) {
	if m.SegItems < 1 {
		return nil, fmt.Errorf("hub: load snapshot: manifest seals segments at %d items", m.SegItems)
	}
	bases := make([]int, len(m.Segments))
	base := 0
	for j, g := range m.Segments {
		n := g.total()
		bad := len(g.Items) > len(m.Sources) || n < 1 || (n < m.SegItems && j < len(m.Segments)-1)
		for _, k := range g.Items {
			bad = bad || k < 0
		}
		if bad {
			return nil, fmt.Errorf("hub: snapshot segment %d holds %v items of %d sources: every segment holds some, of the manifest's sources, and every one but the last at least %d",
				j, g.Items, len(m.Sources), m.SegItems)
		}
		bases[j], base = base, base+n
	}
	return bases, nil
}

// ---------------------------------------------------------------------
// Segment decoding
// ---------------------------------------------------------------------

// segSource is what a segment is read against: a manifest slot's name and
// schema.
type segSource struct {
	name string
	sch  *schema.Schema
}

// decSegment is one decoded segment: the position its frames declare (its
// base), the manifest entry it reproduces (item counts, chunks, bytes,
// content address) and each source's tuples in it.
type decSegment struct {
	base int
	meta snapSegment
	// blocks[i] holds source i's rows, rows[i] all of them.
	blocks []relation.TupleBlocks
	rows   []relation.Rows
}

// decodeSegment decodes one segment file's bytes, data, reading each
// run's tuples against the schema of its source's slot in srcs straight
// into cell blocks of the source's own — laid out from row from[i] on,
// the source's tuples in the segments before it, where its relation will
// hold them — and takes the segment's content address: the SHA-256 of
// data. Runs come in srcs order, a source's at most once and never
// empty; the base a file declares is one less than its first frame's
// number.
func decodeSegment(data []byte, srcs []segSource, from []int) (*decSegment, error) {
	sum := sha256.Sum256(data)
	d := &decSegment{meta: snapSegment{Bytes: int64(len(data)), Hash: hex.EncodeToString(sum[:])}, blocks: make([]relation.TupleBlocks, len(srcs))}
	for i, n := range from {
		if i < len(srcs) {
			d.blocks[i].Skip(n)
		}
	}
	frames := wal.NewFrameCutter(data)
	cur, more := -1, false
	for {
		rec, _, err := frames.Next()
		if err == io.EOF {
			if more || cur < 0 {
				return nil, fmt.Errorf("truncated (no final chunk)")
			}
			break
		}
		if err != nil {
			return nil, err
		}
		d.meta.Chunks++
		n := d.meta.Chunks
		run, err := wal.CutRun(rec.Payload)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", n, err)
		}
		if n == 1 {
			d.base = int(rec.Seq - 1)
		}
		next := cur
		if !more {
			// A new run: of a source after the last run's.
			next++
			for next < len(srcs) && srcs[next].name != string(run.Source) {
				next++
			}
		}
		if next >= len(srcs) || srcs[next].name != string(run.Source) || rec.Seq != uint64(d.base+n) {
			return nil, fmt.Errorf("chunk %d out of sequence (source %q, frame %d)", n, run.Source, rec.Seq)
		}
		cur = next
		if _, err = run.Tuples(&d.blocks[cur], srcs[cur].sch); err != nil {
			return nil, fmt.Errorf("chunk %d after tuple %d of source %q: %w", n, d.blocks[cur].Len(), srcs[cur].name, err)
		}
		if more = run.More; !more && d.blocks[cur].Len() == 0 {
			return nil, fmt.Errorf("chunk %d ends an empty run of source %q", n, srcs[cur].name)
		}
	}
	d.meta.Items = make([]int, len(srcs))
	d.rows = make([]relation.Rows, len(srcs))
	for i := range d.blocks {
		d.rows[i] = d.blocks[i].Rows()
		d.meta.Items[i] = d.rows[i].Len()
	}
	d.meta.Items = trimItems(d.meta.Items)
	return d, nil
}

// matches verifies a decoded segment against the manifest position it
// was read for — segment j, after base items — and that position's entry.
func (d *decSegment) matches(j, base int, want snapSegment) error {
	if d.base != base || !d.meta.equal(want) {
		return fmt.Errorf("hub: snapshot segment %d does not match its manifest entry", j)
	}
	return nil
}
