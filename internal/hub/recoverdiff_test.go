package hub

// Open against the log applied one record at a time. Open reads the log
// tail into the relations and builds each pair once (snapload.go);
// naiveReplay is the serial replay that did the job before — every
// record through AddSource, Link and Insert, decoded by the envelope
// decoder alone — kept here as the reference. Seeded histories cover what
// makes the commit order of a pair's table more than Build's: links made
// mid-stream after inserts on both sides, seeded registrations, chunked
// ones and one the log abandons, and a snapshot whose tail registers a
// new source and links it. Open and the reference must agree on every
// pair's table — in commit order past the snapshot's cut, as a set inside
// it, where Open rebuilds the table in Build's order — the partition,
// Stats and the count of records replayed, and then write byte-identical
// snapshot segments.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
	"entityid/internal/wal"
)

func TestOpenEqualsOneRecordAtATime(t *testing.T) {
	for _, backend := range []string{"mem", "disk"} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", backend, seed), func(t *testing.T) {
				// Seeds of more than a few tuples are chunked; the disk store
				// holds a handful of cluster members.
				opts := Options{Store: backend, chunkBytes: 300}
				if backend == "disk" {
					opts.HotClusterEntries = 8
				}
				hist := &history{w: datagen.MustMultiGenerate(datagen.MultiConfig{
					Sources: 4, Entities: 40, PresenceFrac: 0.7, HomonymRate: 0.2,
					MissingPhone: 0.1, DirtyPhone: 0.2, Seed: seed,
				}), rng: rand.New(rand.NewSource(seed))}
				dir := t.TempDir()
				h := mustOpen(t, dir, opts)
				hist.register(t, h, 0, 3)
				hist.register(t, h, 1, 0)
				hist.insert(t, h, 8, 0, 1)
				hist.link(t, h, 0, 1)
				hist.register(t, h, 2, 12)
				hist.insert(t, h, 10, 0, 1, 2)
				hist.link(t, h, 1, 2)
				hist.insert(t, h, 6, 0, 1, 2)
				hist.link(t, h, 0, 2)
				hist.insert(t, h, 10, 0, 1, 2)
				mustClose(t, h)
				head := logPayloads(t, dir, 0)
				at := 1 + hist.rng.Intn(len(head))
				head = slices.Concat(head[:at], abandonedGroup(t), head[at:])
				writeSegment(t, dir, head, 0, nil)
				agreeWithNaive(t, "the log alone", dir, opts, head, 0)

				h = mustOpen(t, dir, opts)
				if err := h.SnapshotNow(); err != nil {
					t.Fatal(err)
				}
				hist.insert(t, h, 5, 0, 1, 2)
				hist.register(t, h, 3, 2)
				hist.insert(t, h, 6, 0, 3)
				hist.link(t, h, 3, 0)
				hist.insert(t, h, 6, 0, 1, 2, 3)
				hist.link(t, h, 2, 3)
				hist.insert(t, h, 1<<20, 0, 1, 2, 3)
				mustClose(t, h)
				tail := logPayloads(t, dir, uint64(len(head)))
				agreeWithNaive(t, "a snapshot and its tail", dir, opts, slices.Concat(head, tail), len(head))
			})
		}
	}
}

// history drives a durable hub through a datagen workload: sources
// registered with some of their tuples as seeds, the rest inserted, each
// source's tuples in a shuffled order (datagen's is the entities', which
// would make the tables' commit order their (R, S) order), the sources
// interleaved at random, links made when the script says.
type history struct {
	w      *datagen.MultiWorkload
	rng    *rand.Rand
	tuples [4][]relation.Tuple // per source, its tuples in the order they go in
	next   [4]int              // per source, the first tuple not yet in the hub
}

func (hs *history) register(t *testing.T, h *Hub, k, seeds int) {
	t.Helper()
	hs.tuples[k] = slices.Clone(hs.w.Relations[k].Tuples())
	hs.rng.Shuffle(len(hs.tuples[k]), func(i, j int) { hs.tuples[k][i], hs.tuples[k][j] = hs.tuples[k][j], hs.tuples[k][i] })
	rel := relation.New(hs.w.Relations[k].Schema())
	for _, tup := range hs.tuples[k][:seeds] {
		if err := rel.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	hs.next[k] = seeds
	if err := h.AddSource(hs.w.Names[k], rel); err != nil {
		t.Fatal(err)
	}
}

// insert inserts up to n tuples, each of a source of ks drawn at random
// among those with tuples left.
func (hs *history) insert(t *testing.T, h *Hub, n int, ks ...int) {
	t.Helper()
	for ; n > 0; n-- {
		var left []int
		for _, k := range ks {
			if hs.next[k] < len(hs.tuples[k]) {
				left = append(left, k)
			}
		}
		if len(left) == 0 {
			return
		}
		k := left[hs.rng.Intn(len(left))]
		if _, err := h.Insert(hs.w.Names[k], hs.tuples[k][hs.next[k]]); err != nil {
			t.Fatal(err)
		}
		hs.next[k]++
	}
}

func (hs *history) link(t *testing.T, h *Hub, i, j int) {
	t.Helper()
	if err := h.Link(SpecFromMultiPair(hs.w.Pair(i, j))); err != nil {
		t.Fatal(err)
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Hub {
	t.Helper()
	h, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustClose(t *testing.T, h *Hub) {
	t.Helper()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// logPayloads returns the payloads of the records of dir's log past
// after.
func logPayloads(t *testing.T, dir string, after uint64) [][]byte {
	t.Helper()
	l, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out [][]byte
	if _, err := l.Recover(after, func(recs []wal.Record) error {
		for _, rec := range recs {
			out = append(out, rec.Payload)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// abandonedGroup is a registration whose writer died after its first
// run record.
func abandonedGroup(t *testing.T) [][]byte {
	t.Helper()
	ghost := schema.MustNew("ghost", []schema.Attribute{{Name: "id", Kind: value.KindString}})
	begin, err := wal.Envelope{Type: wal.TypeSourceBegin, SourceBegin: &wal.SourceBeginRec{Name: "ghost", Schema: wal.EncodeSchema(ghost)}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{begin, wal.AppendRun(nil, "ghost", true, relation.RowsOf(relation.Tuple{value.String("g1")}))}
}

// agreeWithNaive opens a copy of dir and, in a fresh directory, applies
// payloads — the whole history dir's log and snapshot hold, the snapshot
// covering the first watermark records — one at a time, and holds the two
// hubs to one state.
func agreeWithNaive(t *testing.T, label string, dir string, opts Options, payloads [][]byte, watermark int) {
	t.Helper()
	work := t.TempDir()
	if err := os.CopyFS(work, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	got, info, err := Open(work, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer got.Close()
	ref := mustOpen(t, t.TempDir(), opts)
	defer ref.Close()
	counts, err := naiveReplay(ref, payloads)
	if err != nil {
		t.Fatalf("%s: the reference: %v", label, err)
	}
	replayed := 0
	for _, n := range counts[watermark:] {
		replayed += n
	}
	if info.Replayed != replayed || info.FromSnapshot != (watermark > 0) {
		t.Fatalf("%s: Open replayed %d records (snapshot %v), the reference %d past record %d", label, info.Replayed, info.FromSnapshot, replayed, watermark)
	}
	var man *snapManifest
	if watermark > 0 {
		if man, err = readManifest(wal.OS, dir); err != nil {
			t.Fatal(err)
		}
	}
	if g, w := pairLogs(t, got, man), pairLogs(t, ref, man); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: pair tables in commit order differ:\nOpen      %v\nreference %v", label, g, w)
	}
	if g, w := partitionOf(t, got), partitionOf(t, ref); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: partitions differ:\nOpen      %v\nreference %v", label, g, w)
	}
	if g, w := got.Stats(), ref.Stats(); g != w {
		t.Fatalf("%s: Stats %+v, the reference %+v", label, g, w)
	}
	if g, w := runFiles(t, got), runFiles(t, ref); !slices.EqualFunc(g, w, bytes.Equal) {
		t.Fatalf("%s: the snapshots' segments differ: %d files, the reference %d", label, len(g), len(w))
	}
}

// pairLogs returns every pair's matching table in commit order, but with
// the entries inside the cut of each link the snapshot man holds (nil:
// none) sorted: a snapshot stores no table, so a load rebuilds those in
// Build's order. They lead the table, and every later entry keeps its
// place, so commitOrder is still held for the tail.
func pairLogs(t *testing.T, h *Hub, man *snapManifest) [][]match.Pair {
	t.Helper()
	h.mu.RLock()
	h.commitMu.Lock()
	cut := h.cutLocked(0)
	h.commitMu.Unlock()
	h.mu.RUnlock()
	out := make([][]match.Pair, len(cut.pairs))
	for i, cp := range cut.pairs {
		out[i] = h.copyPairRange(cp)
		if man != nil && i < len(man.Pairs) {
			held := man.Pairs[i]
			k := 0
			for k < len(out[i]) && out[i][k].RIndex < held.RLen && out[i][k].SIndex < held.SLen {
				k++
			}
			match.SortPairs(out[i][:k])
		}
	}
	return out
}

// runFiles snapshots h whole — nothing carried forward from an earlier
// snapshot, whose segments follow when it was taken — and returns its
// segment files' bytes in manifest order.
func runFiles(t *testing.T, h *Hub) [][]byte {
	t.Helper()
	h.snap.snapMu.Lock()
	h.snap.prevMan = nil
	h.snap.snapMu.Unlock()
	if err := h.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(wal.OS, h.snap.dir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, g := range man.Segments {
		data, err := os.ReadFile(secPath(h.snap.dir, g.Hash))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// naiveReplay applies log records to h one at a time, through AddSource,
// Link and Insert, and returns how many records each payload committed (a
// registration's at its run's last record, an abandoned one's never).
func naiveReplay(h *Hub, payloads [][]byte) ([]int, error) {
	schemas := map[string]*schema.Schema{}
	counts := make([]int, len(payloads))
	var open *pendingSource
	for i, p := range payloads {
		var err error
		if wal.IsRun(p) {
			counts[i], err = naiveRun(h, p, schemas, &open)
		} else {
			open = nil // any other record aborts an open group
			var env wal.Envelope
			if env, err = wal.DecodeEnvelope(p); err == nil {
				counts[i], err = naiveEnvelope(h, env, schemas, &open)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i+1, err)
		}
	}
	return counts, nil
}

// naiveEnvelope applies a source_begin, which opens a group, or a link.
func naiveEnvelope(h *Hub, env wal.Envelope, schemas map[string]*schema.Schema, open **pendingSource) (int, error) {
	if env.Type == wal.TypeLink {
		spec, err := specFromLinkRec(*env.Link)
		if err != nil {
			return 0, err
		}
		return 1, h.Link(spec)
	}
	sch, err := wal.DecodeSchema(env.SourceBegin.Schema)
	if err != nil {
		return 0, err
	}
	schemas[env.SourceBegin.Name] = sch
	*open = &pendingSource{name: env.SourceBegin.Name, schema: sch, records: 1}
	return 0, nil
}

// naiveRun applies a run record: the open group's seeds, inserted one at
// a time at its last record, or an insert.
func naiveRun(h *Hub, payload []byte, schemas map[string]*schema.Schema, open **pendingSource) (int, error) {
	run, err := wal.CutRun(payload)
	if err != nil {
		return 0, err
	}
	name := string(run.Source)
	sch := schemas[name]
	if sch == nil {
		return 0, fmt.Errorf("run of unregistered %q", name)
	}
	var blocks relation.TupleBlocks
	ts, err := run.Tuples(&blocks, sch)
	if err != nil {
		return 0, err
	}
	p := *open
	if p == nil || p.name != name {
		*open = nil
		if run.More || ts.Len() != 1 {
			return 0, fmt.Errorf("a run of %d tuples outside a registration", ts.Len())
		}
		_, err := h.Insert(name, ts.TupleInto(nil, 0))
		return 1, err
	}
	p.rows = append(p.rows, ts)
	if p.records++; run.More {
		return 0, nil
	}
	*open = nil
	rel := relation.New(sch)
	for _, rows := range p.rows {
		for i := range rows.Len() {
			if err := rel.Insert(rows.TupleInto(nil, i)); err != nil {
				return 0, err
			}
		}
	}
	return p.records, h.AddSource(name, rel)
}
