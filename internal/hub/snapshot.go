// Hub snapshots: a chunked, incremental encoding of the sources, and the
// only one. A snapshot is a *manifest* record plus the *runs* of each
// source's tuples, taken in commit order: sequence items [k·R, (k+1)·R)
// are run k, R one constant (snapRunItems). Sources are append-only, so a
// full run is *sealed* — its content can never change — and only a
// source's last, partial run is ever re-encoded. Each run is a
// content-addressed file under the data directory (written by
// snapwriter.go at a cut snapcut.go captures, read back by snapload.go);
// this file is what is in them. A run is a sequence of CRC frames whose
// tuples are split across continuation chunks, so no frame approaches the
// WAL's frame cap however the chunk budget is set — the tuples as the
// tuple codec's bytes (internal/relation/json.go; kinds come from the
// schema in the run's manifest slot, which is what the loader reads them
// against); the manifest carries each run's SHA-256 content address,
// chunk count, byte count and item count, and — so that nothing that
// changes ever sits inside a sealed run — each source's schema, each
// pair's link spec and the two side lengths the link was cut at. Nothing
// a load can rebuild is stored: a matching table is a function of its two
// relations (§4.2) and the cluster partition is the fold of the tables,
// so the loader computes both (snapload.go).
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

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
	"entityid/internal/wal"
)

// The run kind (and the marker of manifest records).
const (
	secSource   = "source"
	secManifest = "manifest"

	snapFormat = 5

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
// length its sources were cut at and, in registration order, each
// source's schema and run directory and each pair's link and cut.
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

// snapPair is one pair at the cut: its link and the side lengths its
// table was computed over, which the load rebuilds it from.
type snapPair struct {
	Link wal.LinkRec `json:"link"`
	RLen int         `json:"rlen"`
	SLen int         `json:"slen"`
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

// runID says which run a file holds: the source, by name, and the
// position in its sequence. The first chunk of every run declares it, so
// a run file substituted for another fails the load even when the
// manifest was edited to name it.
type runID struct {
	name string
	run  int
}

func (id runID) String() string {
	return fmt.Sprintf("source %s run %d", id.name, id.run)
}

// id is the source's sequence: its run 0.
func (s snapSource) id() runID { return runID{name: s.Name} }

// eachRun calls fn for every run of the manifest in manifest order.
func (m *snapManifest) eachRun(fn func(id runID, r snapRun)) {
	for _, s := range m.Sources {
		id := s.id()
		for k, r := range s.Runs {
			id.run = k
			fn(id, r)
		}
	}
}

// ---------------------------------------------------------------------
// Run chunks: one spelling
// ---------------------------------------------------------------------
//
// A run frame's payload is one chunk: a slice of the source's tuples, the
// first chunk also naming the source, the final one marked, the chunk
// number 1-based and equal to the frame's sequence number. Its spelling is
// what encoding/json made of the chunk struct format 4 began with — its
// fields in this order, each bracketed one only when set — and what every
// writer since has written:
//
//	{"v2":"source","run":N,"chunk":N[,"last":true][,"name":S][,"tuples":[…]]}

// estimateTuple approximates a tuple's encoded size, for size-budgeted
// chunking; it only needs to be deterministic and roughly proportional.
func estimateTuple(t relation.Tuple) int {
	n := 2
	for _, v := range t {
		n += len(v.String()) + 3
	}
	return n
}

// appendChunk appends chunk n of run id, holding tuples and, when first,
// the source's name.
func appendChunk(b []byte, id runID, n int, first, last bool, tuples []relation.Tuple) []byte {
	b = append(b, `{"v2":"`+secSource+`","run":`...)
	b = strconv.AppendInt(b, int64(id.run), 10)
	b = append(b, `,"chunk":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	if last {
		b = append(b, `,"last":true`...)
	}
	if first && id.name != "" {
		b = value.AppendJSONString(append(b, `,"name":`...), id.name)
	}
	if len(tuples) > 0 {
		b = relation.AppendTuplesJSON(append(b, `,"tuples":`...), tuples)
	}
	return append(b, '}')
}

// writeChunked splits tuples into budget-sized runs, encoding each via
// encode and handing the payload to emit. The estimator is
// approximate, so a run whose encoded payload still overflows the
// frame cap is halved until it fits (a single tuple larger than the cap
// is unrepresentable and fails loudly at the frame encoder). The split
// is deterministic for given tuples and budget, so equal content always
// yields equal bytes. Shared by snapshot runs and chunked AddSource log
// groups.
func writeChunked(tuples []relation.Tuple, budget int, encode func(lo, hi int, first, last bool) ([]byte, error), emit func([]byte) error) error {
	if budget <= 0 {
		budget = wal.DefaultChunkPayload
	}
	// Leave halving headroom under the frame cap even when the budget
	// override is set recklessly high.
	if max := wal.FrameCap() / 2; budget > max {
		budget = max
	}
	total := len(tuples)
	lo := 0
	for first := true; first || lo < total; first = false {
		hi, est := lo, 0
		for hi < total {
			est += estimateTuple(tuples[hi])
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

// writeRunChunks encodes run id's tuples as budget-sized chunks through
// the section writer.
func writeRunChunks(sw *wal.SectionWriter, id runID, tuples []relation.Tuple, budget int) error {
	var buf []byte // the frame encoder copies each payload out
	encode := func(lo, hi int, first, last bool) ([]byte, error) {
		buf = appendChunk(buf[:0], id, sw.Chunks()+1, first, last, tuples[lo:hi])
		return buf, nil
	}
	return writeChunked(tuples, budget, encode, sw.WriteChunk)
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
// whole-sequence sections share nothing with runs but the frame, and
// format 4's manifest names pair runs this build neither reads nor keeps.
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

// checkRuns holds a source's run directory to the cut it claims: runs
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
// manifest entry it reproduces (counts, content address) and its tuples.
type decRun struct {
	id     runID
	meta   snapRun
	tuples []relation.Tuple
}

// decodeRun decodes one run file's bytes, data, reading its tuples against
// sch — the schema of the manifest slot the run is read for — and takes
// the run's content address: the SHA-256 of data.
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
	d.meta.Items = len(d.tuples)
	return d, nil
}

// addChunk reads the run's next chunk, in the one spelling appendChunk
// writes, and reports whether it was the final one.
func (d *decRun) addChunk(rec wal.Record, sch *schema.Schema) (last bool, err error) {
	d.meta.Chunks++
	n := d.meta.Chunks
	c := chunkReader{p: rec.Payload}
	okKind := c.lit(`{"v2":"` + secSource + `"`)
	run, okRun := c.num(`,"run":`)
	chunk, okChunk := c.num(`,"chunk":`)
	if !okKind || !okRun || !okChunk {
		return false, c.refuse(n, rec.Payload)
	}
	last = c.lit(`,"last":true`)
	if n == 1 {
		d.id.run = run
	}
	if run != d.id.run || chunk != n || uint64(chunk) != rec.Seq {
		return false, fmt.Errorf("chunk %d out of sequence (run %d chunk %d, frame %d)", n, run, chunk, rec.Seq)
	}
	ok := true
	if n == 1 {
		d.id.name, ok = c.name(`,"name":`)
	}
	// The tuples are the chunk's last field, an array from the colon to the
	// closing brace; what is inside it is the tuple codec's to read.
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

// matches verifies a decoded run against the manifest position it was
// read for and that position's entry.
func (d *decRun) matches(id runID, want snapRun) error {
	if d.id != id || d.meta != want {
		return fmt.Errorf("hub: snapshot %v does not match its manifest entry", id)
	}
	return nil
}
