// Hub snapshots: a chunked, incremental encoding of the federation
// state, and the only one. A snapshot is a *manifest* record plus the
// *runs* of each source's tuples and each pair's matching table, both
// taken in commit order: sequence items [k·R, (k+1)·R) are run k, R one
// constant (snapRunItems). Sources are append-only and the matching
// table is monotone (§3.3: an insert adds entries and never retracts
// one), so a full run is *sealed* — its content can never change — and
// only a sequence's last, partial run is ever re-encoded. Each run is a
// content-addressed file under the data directory (written by
// snapwriter.go at a cut snapcut.go captures, read back by snapload.go);
// this file is what is in them. A run is a sequence of CRC frames whose
// tuple/pair payloads are split across continuation chunks, so no frame
// approaches the WAL's frame cap however the chunk budget is set — a
// source run's tuples as the tuple codec's bytes
// (internal/relation/json.go; kinds come from the schema in the run's
// manifest slot, which is what the loader reads them against); the
// manifest carries each run's SHA-256 content address, chunk count and
// item count, and — so that nothing that changes ever sits inside a
// sealed run — each source's schema, each pair's link spec and the
// cut's side lengths. The cluster partition is not stored: it is the
// fold of the very pair tables the manifest hash-verifies, so the loader
// computes it from them (snapload.go).
package hub

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/wal"
)

// matchPair converts the snapshot's compact pair form.
func matchPair(p [2]int) match.Pair { return match.Pair{RIndex: p[0], SIndex: p[1]} }

// The run kinds (and the marker of manifest records).
const (
	secSource   = "source"
	secPair     = "pair"
	secManifest = "manifest"

	snapFormat = 4

	// snapRunItems is R, the items of a sealed run. An incremental
	// snapshot re-encodes each sequence's partial run — R/2 items it has
	// written before, on average — and the manifest lists every run, so R
	// trades bytes rewritten per snapshot against manifest entries and
	// files per item. Measured under read_cold's traffic (inserts into
	// all four sources, a snapshot per 1024; CHANGES.md, PR 23): a
	// snapshot's cost is mostly per file, not per byte, so 256 halves the
	// bytes written (2.9 per user byte against 5.4) yet ingests no faster
	// (30.5–33.6k tuples/s against 32.9–34.9k) on a manifest four times
	// as long, and 4096 re-encodes three times as much (15.9 per user
	// byte, half the runs reused) and ingests at 29.6–30.9k.
	snapRunItems = 1024
)

// snapManifest is the manifest record: the snapshot's watermark, the run
// length its sequences were cut at and, per source and per pair in
// registration order, what a run must not hold and the run directory.
// Its frame sequence number is watermark+1, so the zero watermark still
// frames validly.
type snapManifest struct {
	V2        string       `json:"v2"` // always "manifest"
	Format    int          `json:"format"`
	Watermark uint64       `json:"watermark"`
	RunItems  int          `json:"run_items"`
	Sources   []snapSource `json:"sources"`
	Pairs     []snapPair   `json:"pairs"`
}

// snapSource is one source at the cut: its schema and its tuples' runs.
type snapSource struct {
	Name   string        `json:"name"`
	Schema wal.SchemaRec `json:"schema"`
	Runs   []snapRun     `json:"runs"`
}

// snapPair is one pair at the cut: its link, the side lengths the table
// was computed over and the table's runs.
type snapPair struct {
	Link wal.LinkRec `json:"link"`
	RLen int         `json:"rlen"`
	SLen int         `json:"slen"`
	Runs []snapRun   `json:"runs"`
}

// snapRun is one run's manifest entry: how many items it holds and the
// encoded frames' chunk count, framed byte count and hex SHA-256 — the
// run file's name.
type snapRun struct {
	Items  int    `json:"items"`
	Chunks int    `json:"chunks"`
	Bytes  int64  `json:"bytes"`
	Hash   string `json:"hash"`
}

// runID says which run a file holds: the sequence (a source by name, a
// pair by its sides) and the position in it. The first chunk of every
// run declares it, so a run file substituted for another fails the load
// even when the manifest was edited to name it.
type runID struct {
	kind              string
	name, left, right string
	run               int
}

func (id runID) String() string {
	if id.kind == secPair {
		return fmt.Sprintf("pair %s-%s run %d", id.left, id.right, id.run)
	}
	return fmt.Sprintf("%s %s run %d", id.kind, id.name, id.run)
}

// id is the source's sequence: its run 0.
func (s snapSource) id() runID { return runID{kind: secSource, name: s.Name} }

// id is the pair's sequence: its run 0.
func (p snapPair) id() runID { return runID{kind: secPair, left: p.Link.Left, right: p.Link.Right} }

// eachSeq calls fn for every sequence of the manifest — sources, then
// pairs, each in registration order — with its run directory.
func (m *snapManifest) eachSeq(fn func(id runID, runs []snapRun)) {
	for _, s := range m.Sources {
		fn(s.id(), s.Runs)
	}
	for _, p := range m.Pairs {
		fn(p.id(), p.Runs)
	}
}

// eachRun calls fn for every run of the manifest in manifest order.
func (m *snapManifest) eachRun(fn func(id runID, r snapRun)) {
	m.eachSeq(func(id runID, runs []snapRun) {
		for k, r := range runs {
			id.run = k
			fn(id, r)
		}
	})
}

// snapChunk is one run frame's payload. Every chunk carries a slice of
// the run's items; the first also carries the run's identity, the final
// one is marked Last.
type snapChunk struct {
	V2    string `json:"v2"` // run kind
	Run   int    `json:"run"`
	Chunk int    `json:"chunk"` // 1-based; equals the frame sequence number
	Last  bool   `json:"last,omitempty"`

	// A source run's sequence and items (relation.AppendTuplesJSON's
	// array).
	Name   string          `json:"name,omitempty"`
	Tuples json.RawMessage `json:"tuples,omitempty"`

	// A pair run's sequence and items.
	Left  string   `json:"left,omitempty"`
	Right string   `json:"right,omitempty"`
	MT    [][2]int `json:"mt,omitempty"`
}

// ---------------------------------------------------------------------
// Run encoding
// ---------------------------------------------------------------------

// chunkItems abstracts the two run bodies for size-budgeted chunking:
// tuple lists and matching-pair lists.
type chunkItems interface {
	len() int
	// estimate approximates item i's encoded size; it only needs to be
	// deterministic and roughly proportional.
	estimate(i int) int
	// put encodes items [lo, hi) into the chunk.
	put(c *snapChunk, lo, hi int)
	// slice is items [lo, hi) as a body of their own.
	slice(lo, hi int) chunkItems
}

type tupleItems []relation.Tuple

func (t tupleItems) len() int { return len(t) }
func (t tupleItems) estimate(i int) int {
	n := 2
	for _, v := range t[i] {
		n += len(v.String()) + 3
	}
	return n
}
func (t tupleItems) put(c *snapChunk, lo, hi int) {
	c.Tuples = relation.AppendTuplesJSON(nil, t[lo:hi])
}
func (t tupleItems) slice(lo, hi int) chunkItems { return t[lo:hi] }

type mtItems []match.Pair

func (m mtItems) len() int         { return len(m) }
func (m mtItems) estimate(int) int { return 24 }
func (m mtItems) put(c *snapChunk, lo, hi int) {
	c.MT = make([][2]int, hi-lo)
	for i := lo; i < hi; i++ {
		c.MT[i-lo] = [2]int{m[i].RIndex, m[i].SIndex}
	}
}
func (m mtItems) slice(lo, hi int) chunkItems { return m[lo:hi] }

// writeChunked splits items into budget-sized runs, encoding each via
// encode and handing the payload to emit. The estimator is
// approximate, so a run whose encoded payload still overflows the
// frame cap is halved until it fits (a single item larger than the cap
// is unrepresentable and fails loudly at the frame encoder). The split
// is deterministic for given items and budget, so equal content always
// yields equal bytes. Shared by snapshot runs and chunked AddSource log
// groups.
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

// writeRunChunks encodes run id's items as budget-sized chunks through
// the section writer.
func writeRunChunks(sw *wal.SectionWriter, id runID, items chunkItems, budget int) error {
	encode := func(lo, hi int, first, last bool) ([]byte, error) {
		c := snapChunk{V2: id.kind, Run: id.run, Chunk: sw.Chunks() + 1, Last: last}
		if first {
			c.Name, c.Left, c.Right = id.name, id.left, id.right
		}
		if hi > lo {
			items.put(&c, lo, hi)
		}
		return json.Marshal(c)
	}
	return writeChunked(items, budget, encode, sw.WriteChunk)
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
// whole-sequence sections share nothing with runs but the frame.
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

// checkRuns holds a sequence's run directory to the cut it claims: runs
// dense from 0 (their position is their number), every run but the last
// exactly runItems long, the last non-empty and no longer.
func checkRuns(id runID, runs []snapRun, runItems int) error {
	for k, r := range runs {
		if r.Items < 1 || r.Items > runItems || (r.Items < runItems && k < len(runs)-1) {
			id.run = k
			return fmt.Errorf("hub: snapshot %v holds %d items: every run but a sequence's last holds %d", id, r.Items, runItems)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Run decoding
// ---------------------------------------------------------------------

// decRun is one decoded run: the identity its first chunk declares, the
// manifest entry it reproduces (counts, content address) and its items.
type decRun struct {
	id     runID
	meta   snapRun
	tuples []relation.Tuple
	mt     []match.Pair
}

// decodeRun streams one run's bytes through the chunk decoder, reading
// a source run's tuples against sch — the schema of the manifest slot
// the run is read for (nil for a pair's). The run's content address —
// the SHA-256 of the raw frame bytes exactly as read — accumulates as it
// goes.
func decodeRun(r io.Reader, sch *schema.Schema) (*decRun, error) {
	d := &decRun{}
	sum := sha256.New()
	scanner := wal.NewFrameScanner(r)
	for last := false; !last; {
		rec, raw, err := scanner.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("hub: snapshot run: truncated (no final chunk)")
		}
		if err != nil {
			return nil, fmt.Errorf("hub: snapshot run: %w", err)
		}
		if last, err = d.addChunk(rec, sch); err != nil {
			return nil, err
		}
		sum.Write(raw)
		d.meta.Bytes += int64(len(raw))
	}
	if _, _, err := scanner.Next(); err != io.EOF {
		return nil, fmt.Errorf("hub: snapshot %v: trailing frames after final chunk", d.id)
	}
	d.meta.Hash = hex.EncodeToString(sum.Sum(nil))
	return d, nil
}

// addChunk applies one chunk and reports whether it was the final one.
func (d *decRun) addChunk(rec wal.Record, sch *schema.Schema) (last bool, err error) {
	var c snapChunk
	if err := json.Unmarshal(rec.Payload, &c); err != nil {
		return false, fmt.Errorf("hub: snapshot run: %w", err)
	}
	d.meta.Chunks++
	if d.meta.Chunks == 1 {
		if c.V2 != secSource && c.V2 != secPair {
			return false, fmt.Errorf("hub: snapshot run: unknown kind %q", c.V2)
		}
		d.id = runID{kind: c.V2, name: c.Name, left: c.Left, right: c.Right, run: c.Run}
	}
	if c.V2 != d.id.kind || c.Run != d.id.run || c.Chunk != d.meta.Chunks || uint64(c.Chunk) != rec.Seq {
		return false, fmt.Errorf("hub: snapshot %v: chunk out of sequence (%s run %d chunk %d, frame %d, want chunk %d)",
			d.id, c.V2, c.Run, c.Chunk, rec.Seq, d.meta.Chunks)
	}
	if (d.id.kind == secSource && (len(c.MT) > 0 || sch == nil)) || (d.id.kind == secPair && len(c.Tuples) > 0) {
		return false, fmt.Errorf("hub: snapshot %v: chunk %d holds items of the other kind", d.id, c.Chunk)
	}
	if len(c.Tuples) > 0 {
		ts, err := relation.ParseTuplesJSON(sch, c.Tuples)
		if err != nil {
			return false, fmt.Errorf("hub: snapshot %v after tuple %d: %w", d.id, d.meta.Items, err)
		}
		d.tuples = append(d.tuples, ts...)
		d.meta.Items += len(ts)
	}
	for _, pr := range c.MT {
		d.mt = append(d.mt, matchPair(pr))
	}
	d.meta.Items += len(c.MT)
	return c.Last, nil
}

// matches verifies a decoded run against the manifest position it was
// read for and that position's entry.
func (d *decRun) matches(id runID, want snapRun) error {
	if d.id != id || d.meta != want {
		return fmt.Errorf("hub: snapshot %v does not match its manifest entry", id)
	}
	return nil
}
