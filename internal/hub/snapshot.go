// Hub snapshots: a chunked, incremental encoding of the federation
// state, and the only one. A snapshot is a *manifest* record plus one
// *section* per source, per pair and for the cluster partition, each
// section a content-addressed file under the data directory (written by
// snapwriter.go at a cut snapcut.go captures, read back by
// snapload.go); this file is what is in them. A section is a run of CRC
// frames whose tuple/pair payloads are split across continuation
// chunks, so no frame approaches the WAL's frame cap no matter how
// large the hub grows; the manifest carries each section's SHA-256
// content address, chunk count and item count.
package hub

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"entityid/internal/match"
	"entityid/internal/relation"
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
		return json.Marshal(c)
	}
	return writeChunked(b.items, budget, encode, sw.WriteChunk)
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
