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
// manifest carries each run's SHA-256 content address, chunk count, byte
// count and item count, and — so that nothing that changes ever sits
// inside a sealed run — each source's schema, each pair's link spec and
// the cut's side lengths. The cluster partition is not stored: it is the
// fold of the very pair tables the manifest hash-verifies, so the loader
// computes it from them (snapload.go).
//
// A chunk has one spelling, and two hand-written halves: appendChunk
// writes it, decRun.addChunk reads it by slicing, and a chunk spelled any
// other way was not written by this format and is refused. The manifest,
// read once per open, stays encoding/json's.
package hub

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
	"entityid/internal/wal"
)

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

// ---------------------------------------------------------------------
// Run chunks: one spelling
// ---------------------------------------------------------------------
//
// A run frame's payload is one chunk: a slice of the run's items, the
// first chunk also naming the run's sequence, the final one marked, the
// chunk number 1-based and equal to the frame's sequence number. Its
// spelling is what encoding/json made of the chunk struct format 4 began
// with — its fields in this order, each bracketed one only when set —
// and what every format-4 writer has written:
//
//	{"v2":K,"run":N,"chunk":N[,"last":true][,"name":S][,"tuples":[…]][,"left":S][,"right":S][,"mt":[[r,s],…]]}
//
// K is the run kind; a source run carries its name and tuples (the tuple
// codec's array), a pair run its sides and matching pairs.

// chunkItems abstracts the two run bodies for size-budgeted chunking:
// tuple lists and matching-pair lists.
type chunkItems interface {
	len() int
	// estimate approximates item i's encoded size; it only needs to be
	// deterministic and roughly proportional.
	estimate(i int) int
	// appendJSON appends items [lo, hi) as a JSON array.
	appendJSON(b []byte, lo, hi int) []byte
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
func (t tupleItems) appendJSON(b []byte, lo, hi int) []byte {
	return relation.AppendTuplesJSON(b, t[lo:hi])
}
func (t tupleItems) slice(lo, hi int) chunkItems { return t[lo:hi] }

type mtItems []match.Pair

func (m mtItems) len() int         { return len(m) }
func (m mtItems) estimate(int) int { return 24 }
func (m mtItems) appendJSON(b []byte, lo, hi int) []byte {
	b = append(b, '[')
	for i, p := range m[lo:hi] {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(p.RIndex), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.SIndex), 10)
		b = append(b, ']')
	}
	return append(b, ']')
}
func (m mtItems) slice(lo, hi int) chunkItems { return m[lo:hi] }

// appendChunk appends chunk n of run id, holding items [lo, hi) — the
// run's tuples or pairs, by its kind — and, when first, the sequence's
// names.
func appendChunk(b []byte, id runID, n int, first, last bool, items chunkItems, lo, hi int) []byte {
	b = append(b, `{"v2":"`...)
	b = append(b, id.kind...)
	b = append(b, `","run":`...)
	b = strconv.AppendInt(b, int64(id.run), 10)
	b = append(b, `,"chunk":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	if last {
		b = append(b, `,"last":true`...)
	}
	b = appendName(b, first, `,"name":`, id.name)
	if id.kind == secSource && hi > lo {
		b = items.appendJSON(append(b, `,"tuples":`...), lo, hi)
	}
	b = appendName(b, first, `,"left":`, id.left)
	b = appendName(b, first, `,"right":`, id.right)
	if id.kind == secPair && hi > lo {
		b = items.appendJSON(append(b, `,"mt":`...), lo, hi)
	}
	return append(b, '}')
}

// appendName appends key and name, a sequence's name the first chunk
// carries, when it does and the name is set.
func appendName(b []byte, first bool, key, name string) []byte {
	if !first || name == "" {
		return b
	}
	return value.AppendJSONString(append(b, key...), name)
}

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
	var buf []byte // the frame encoder copies each payload out
	encode := func(lo, hi int, first, last bool) ([]byte, error) {
		buf = appendChunk(buf[:0], id, sw.Chunks()+1, first, last, items, lo, hi)
		return buf, nil
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

// decodeRun decodes one run file's bytes, data, reading a source run's
// tuples against sch — the schema of the manifest slot the run is read
// for (nil for a pair's) — and takes the run's content address: the
// SHA-256 of data.
func decodeRun(data []byte, sch *schema.Schema) (*decRun, error) {
	sum := sha256.Sum256(data)
	d := &decRun{meta: snapRun{Bytes: int64(len(data)), Hash: hex.EncodeToString(sum[:])}}
	frames := wal.NewFrameCutter(data)
	for last := false; !last; {
		rec, _, err := frames.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("truncated (no final chunk)")
		}
		if err != nil {
			return nil, err
		}
		if last, err = d.addChunk(rec, sch); err != nil {
			return nil, err
		}
	}
	if _, _, err := frames.Next(); err != io.EOF {
		return nil, fmt.Errorf("trailing frames after final chunk")
	}
	d.meta.Items = len(d.tuples) + len(d.mt)
	return d, nil
}

// addChunk reads the run's next chunk, in the one spelling appendChunk
// writes, and reports whether it was the final one.
func (d *decRun) addChunk(rec wal.Record, sch *schema.Schema) (last bool, err error) {
	d.meta.Chunks++
	n := d.meta.Chunks
	c := chunkReader{p: rec.Payload}
	var kind string
	switch {
	case c.lit(`{"v2":"source"`):
		kind = secSource
	case c.lit(`{"v2":"pair"`):
		kind = secPair
	}
	run, okRun := c.num(`,"run":`)
	chunk, okChunk := c.num(`,"chunk":`)
	if kind == "" || !okRun || !okChunk {
		return false, c.refuse(n, rec.Payload)
	}
	last = c.lit(`,"last":true`)
	if n == 1 {
		d.id = runID{kind: kind, run: run}
	}
	if kind != d.id.kind || run != d.id.run || chunk != n || uint64(chunk) != rec.Seq {
		return false, fmt.Errorf("chunk %d out of sequence (%s run %d chunk %d, frame %d)", n, kind, run, chunk, rec.Seq)
	}
	ok := true
	switch kind {
	case secSource:
		if sch == nil {
			return false, fmt.Errorf("chunk %d is a source run's, read for a pair", n)
		}
		if n == 1 {
			d.id.name, ok = c.name(`,"name":`)
		}
		// The tuples are the source chunk's last field, an array from the
		// colon to the closing brace; what is inside it is the tuple
		// codec's to read.
		if ok && c.lit(`,"tuples":`) {
			end := len(c.p) - 1
			if ok = end > 0 && c.p[0] == '[' && c.p[end-1] == ']' && c.p[end] == '}'; ok {
				ts, err := relation.ParseTuplesJSON(sch, c.p[:end])
				if err != nil {
					return false, fmt.Errorf("chunk %d after tuple %d: %w", n, len(d.tuples), err)
				}
				if ok = len(ts) > 0; ok {
					d.tuples, c.p = append(d.tuples, ts...), c.p[end:]
				}
			}
		}
	case secPair:
		if n == 1 {
			if d.id.left, ok = c.name(`,"left":`); ok {
				d.id.right, ok = c.name(`,"right":`)
			}
		}
		if ok && c.lit(`,"mt":`) {
			d.mt, ok = c.pairs(d.mt)
		}
	}
	if !ok || !c.lit("}") || len(c.p) > 0 {
		return false, c.refuse(n, rec.Payload)
	}
	return last, nil
}

// chunkReader reads a chunk payload front to back by slicing: each read
// takes what the one spelling puts next, or takes nothing and says so,
// leaving p where the payload left the spelling.
type chunkReader struct{ p []byte }

// refuse is the error of chunk n, whose payload is not in the one
// spelling from where the reader stopped.
func (c *chunkReader) refuse(n int, payload []byte) error {
	return fmt.Errorf("chunk %d is not spelled as this format writes it (byte %d)", n, len(payload)-len(c.p))
}

// lit reads s.
func (c *chunkReader) lit(s string) bool {
	if len(c.p) < len(s) || string(c.p[:len(s)]) != s {
		return false
	}
	c.p = c.p[len(s):]
	return true
}

// num reads key and the number after it.
func (c *chunkReader) num(key string) (int, bool) {
	if !c.lit(key) {
		return 0, false
	}
	return c.index()
}

// index reads a non-negative int as strconv writes it: digits, no sign,
// no leading zero.
func (c *chunkReader) index() (int, bool) {
	n, i := 0, 0
	for ; i < len(c.p) && '0' <= c.p[i] && c.p[i] <= '9'; i++ {
		d := int(c.p[i] - '0')
		if n > (math.MaxInt-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if i == 0 || (i > 1 && c.p[0] == '0') {
		return 0, false
	}
	c.p = c.p[i:]
	return n, true
}

// name reads key and the name after it: a JSON string, read by the tuple
// codec's string reader, that is not empty (the writer leaves an empty
// name out).
func (c *chunkReader) name(key string) (string, bool) {
	if !c.lit(key) || len(c.p) == 0 || c.p[0] != '"' {
		return "", false
	}
	v, rest, err := value.ParseJSON(c.p, value.KindString)
	if err != nil || v.Str() == "" {
		return "", false
	}
	c.p = rest
	return v.Str(), true
}

// pairs reads a non-empty array of [r,s] pairs onto mt.
func (c *chunkReader) pairs(mt []match.Pair) ([]match.Pair, bool) {
	if !c.lit("[") {
		return mt, false
	}
	for {
		var p match.Pair
		var ok bool
		if !c.lit("[") {
			return mt, false
		}
		if p.RIndex, ok = c.index(); !ok || !c.lit(",") {
			return mt, false
		}
		if p.SIndex, ok = c.index(); !ok || !c.lit("]") {
			return mt, false
		}
		if mt = append(mt, p); c.lit("]") {
			return mt, true
		}
		if !c.lit(",") {
			return mt, false
		}
	}
}

// matches verifies a decoded run against the manifest position it was
// read for and that position's entry.
func (d *decRun) matches(id runID, want snapRun) error {
	if d.id != id || d.meta != want {
		return fmt.Errorf("hub: snapshot %v does not match its manifest entry", id)
	}
	return nil
}
