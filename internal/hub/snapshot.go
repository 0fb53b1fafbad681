// Hub snapshots: a chunked, incremental encoding of the sources, and the
// only one. A snapshot is a *manifest* record plus the *runs* of each
// source's tuples, taken in commit order: sequence items [k·R, (k+1)·R)
// are run k, R one constant (snapRunItems). Sources are append-only, so a
// full run is *sealed* — its content can never change — and only a
// source's last, partial run is ever re-encoded. Each run is a
// content-addressed file under the data directory (written by
// snapwriter.go at a cut snapcut.go captures, read back by snapload.go);
// this file is what is in them. A run file is a sequence of the log's run
// records (internal/wal/run.go), each in a CRC frame and none approaching
// the frame cap however the chunk budget is set, every one but the last
// marked "more": the tuples as the tuple codec's bytes, read against the
// schema in the run's manifest slot. Run k's frames are numbered from
// k·R+1, one a chunk, so a file declares its source and its position
// itself. The manifest carries each run's SHA-256 content address, chunk
// count, byte count and item count, and — so that nothing that changes
// ever sits inside a sealed run — each source's schema, each pair's link
// spec and the two side lengths the link was cut at. Nothing a load can
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

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/wal"
)

// The run kind (and the marker of manifest records).
const (
	secSource   = "source"
	secManifest = "manifest"

	snapFormat = 6

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

// estimateTuple approximates a tuple's encoded size, for size-budgeted
// chunking; it only needs to be deterministic and roughly proportional.
func estimateTuple(t relation.Tuple) int {
	n := 2
	for _, v := range t {
		n += len(v.String()) + 3
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
// It is the one splitter: of a snapshot's runs and of a registration's
// seeds in the log.
func writeChunked(source string, tuples []relation.Tuple, budget int, emit func([]byte) error) error {
	if budget <= 0 {
		budget = wal.DefaultChunkPayload
	}
	// Leave halving headroom under the frame cap even when the budget
	// override is set recklessly high.
	if max := wal.FrameCap() / 2; budget > max {
		budget = max
	}
	var buf []byte
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
			buf = wal.AppendRun(buf[:0], source, hi < total, tuples[lo:hi])
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
// 4's manifest names pair runs this build neither reads nor keeps, and
// format 5's runs hold chunks spelled apart from the run record.
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

// decRun is one decoded run: the identity its records declare, the
// manifest entry it reproduces (counts, content address) and its tuples.
type decRun struct {
	id     runID
	meta   snapRun
	tuples []relation.Tuple
}

// decodeRun decodes one run file's bytes, data, of a snapshot cut at runs
// of runItems, reading its tuples against sch — the schema of the
// manifest slot the run is read for — into blocks of its own, and takes
// the run's content address: the SHA-256 of data. The run the file
// declares is its records' source and, by its first frame's number, its
// position.
func decodeRun(data []byte, sch *schema.Schema, runItems int) (*decRun, error) {
	sum := sha256.Sum256(data)
	d := &decRun{meta: snapRun{Bytes: int64(len(data)), Hash: hex.EncodeToString(sum[:])}}
	var blocks relation.TupleBlocks
	frames := wal.NewFrameCutter(data)
	for more := true; more; {
		rec, _, err := frames.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("truncated (no final chunk)")
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
			d.id = runID{name: string(run.Source), run: int((rec.Seq - 1) / uint64(runItems))}
		}
		if string(run.Source) != d.id.name || rec.Seq != uint64(d.id.run*runItems+n) {
			return nil, fmt.Errorf("chunk %d out of sequence (source %q, frame %d)", n, run.Source, rec.Seq)
		}
		if d.tuples, err = run.Tuples(&blocks, sch, d.tuples); err != nil {
			return nil, fmt.Errorf("chunk %d after tuple %d: %w", n, len(d.tuples), err)
		}
		more = run.More
	}
	if _, _, err := frames.Next(); err != io.EOF {
		return nil, fmt.Errorf("trailing frames after final chunk")
	}
	d.meta.Items = len(d.tuples)
	return d, nil
}

// matches verifies a decoded run against the manifest position it was
// read for and that position's entry.
func (d *decRun) matches(id runID, want snapRun) error {
	if d.id != id || d.meta != want {
		return fmt.Errorf("hub: snapshot %v does not match its manifest entry", id)
	}
	return nil
}
