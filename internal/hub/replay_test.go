package hub

// Open's failure contract for the log tail, pinned record by record:
// whatever breaks the tail at record k — a frame that fails its checks,
// an envelope or tuple that does not decode, an insert its source
// refuses, tuples that break §3.2 pairwise or across sources — Open
// fails closed with "record k: " and why (a frame error drops the tail
// instead, and the hub holds records 1..k-1), however far ahead of the
// applying goroutine the decoding one has read, and leaves no goroutine
// behind. The read of the tail is pinned on its own too: it stops at
// record k having taken exactly records 1..k-1. The strings of the read's
// failures were taken from the serial replay this recovery replaced; a
// pairwise break reports the pair build's own error.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/store"
	"entityid/internal/value"
	"entityid/internal/wal"
)

// replayHead is how many records replayLog's log holds before its first
// insert: two registrations, each a source_begin record and the run of
// its seed tuples (none), and the link.
const replayHead = 5

// replayLog logs a two-source workload (2 registrations, 1 link, the
// inserts in source-major order) with snapshots off and returns the
// directory, the record payloads in log order and the items inserted.
func replayLog(t *testing.T) (dir string, payloads [][]byte, items []Insert) {
	t.Helper()
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 2, Entities: 120, PresenceFrac: 0.8, HomonymRate: 0.1,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 23,
	})
	dir = t.TempDir()
	h, _ := openMultiOpts(t, dir, w, Options{})
	items = MultiInserts(w)
	for _, it := range items {
		if _, err := h.Insert(it.Source, it.Tuple); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segmentPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	sc := wal.NewFrameCutter(data)
	for {
		rec, _, err := sc.Next()
		if err != nil {
			break
		}
		payloads = append(payloads, rec.Payload)
	}
	if want := replayHead + len(items); len(payloads) != want || len(items) < 2*defaultStreamWindow {
		t.Fatalf("log holds %d records for %d inserts, want %d and at least %d inserts",
			len(payloads), len(items), want, 2*defaultStreamWindow)
	}
	return dir, payloads, items
}

func segmentPath(dir string) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%020d.log", 1))
}

// writeSegment replaces the log's one segment with the payloads framed
// under sequence numbers 1..n; mangle, if set, edits the framed bytes of
// record k (1-based) in place.
func writeSegment(t *testing.T, dir string, payloads [][]byte, k int, mangle func(frame []byte)) {
	t.Helper()
	var data []byte
	for i, p := range payloads {
		frame, err := wal.EncodeRecord(uint64(i+1), p)
		if err != nil {
			t.Fatal(err)
		}
		if mangle != nil && i+1 == k {
			mangle(frame)
		}
		data = append(data, frame...)
	}
	if err := os.WriteFile(segmentPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// with returns payloads with record k (1-based) replaced.
func with(payloads [][]byte, k int, p []byte) [][]byte {
	out := append([][]byte(nil), payloads...)
	out[k-1] = p
	return out
}

func TestReplayStopsAtTheFailingRecord(t *testing.T) {
	dir, payloads, items := replayLog(t)
	// The decoder hands the records over in batches of defaultStreamWindow:
	// record k is the last of the first batch, or in the middle of the
	// second, and more than a batch of good records follows it — the
	// decoding side is well past k when the applying side reaches it, and
	// the applying side stops partway through a batch or at its end.
	ks := []int{defaultStreamWindow, defaultStreamWindow + 12}
	cases := make([][]replayCase, len(ks))
	for i, k := range ks {
		cases[i] = replayCases(t, dir, payloads, items, k)
	}
	for c := range cases[0] {
		t.Run(cases[0][c].name, func(t *testing.T) {
			for i, k := range ks {
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					cases[i][c].check(t, dir, k)
				})
			}
		})
	}
}

// replayCase is a log whose record k breaks it. The read of the log tail
// stops at record at (0: it reads it all) with error read; Open fails
// with open after "hub: open <dir>: " (read where open is empty), or —
// a frame error, mangle set — drops the tail from record k on.
type replayCase struct {
	name       string
	payloads   [][]byte
	mangle     func(frame []byte)
	at         int
	read, open string
}

func replayCases(t *testing.T, dir string, payloads [][]byte, items []Insert, k int) []replayCase {
	t.Helper()
	n := len(payloads)
	if n-k <= defaultStreamWindow {
		t.Fatalf("only %d records after record %d", n-k, k)
	}
	prev, err := wal.CutRun(payloads[k-2])
	if err != nil {
		t.Fatal(err)
	}
	src := string(prev.Source)
	insert := func(tup relation.Tuple) []byte { return wal.AppendRun(nil, src, false, relation.RowsOf(tup)) }
	badTuple := bytes.Replace(insert(strs("a", "b", "c", "d")), []byte(`["a"`), []byte(`[7`), 1)
	// Where record k starts in the segment: what a frame error reports.
	offK := 0
	for i, p := range payloads[:k-1] {
		frame, err := wal.EncodeRecord(uint64(i+1), p)
		if err != nil {
			t.Fatal(err)
		}
		offK += len(frame)
	}
	// Two names a JSON string cannot spell, which the log reads back as
	// one: the second insert is a key violation.
	lossy := func(tup relation.Tuple, b byte) []byte {
		tup = append(relation.Tuple{value.String("@name@")}, tup[1:]...)
		return bytes.Replace(insert(tup), []byte(`"@name@"`), []byte{'"', b, '"'}, 1)
	}
	utf8Payloads := with(with(payloads, k-1, lossy(items[k-replayHead-2].Tuple, 0xfe)), k, lossy(items[k-replayHead-2].Tuple, 0xff))
	fffd := append(relation.Tuple{value.String("\ufffd")}, items[k-replayHead-2].Tuple[1:]...)
	// A second tuple of an entity the other source models, under a fresh
	// key of its own: the log takes it, and the pair build finds the other
	// source's tuple, logged later, matched to both — the record that
	// completes the violation is that one.
	writeSegment(t, dir, payloads, 0, nil)
	tw := twinOf(t, dir, items, k)
	unsound := fmt.Sprintf(`record %d: hub: link %q-%q: match: uniqueness violation: S tuple %d matches R tuples %d and %d`,
		tw.partnerRecord, src, tw.other, tw.partner, tw.of, k-replayHead-1)
	return []replayCase{
		{
			name:     "corrupt frame",
			payloads: payloads,
			mangle:   func(frame []byte) { frame[len(frame)-3] ^= 0x01 },
			at:       k,
			read: fmt.Sprintf("wal: corrupt record at offset %d: %s: checksum mismatch",
				offK, filepath.Base(segmentPath(dir))),
		},
		{
			name:     "undecodable envelope",
			payloads: with(payloads, k, []byte(`{"type":"link","link":`)),
			at:       k,
			read:     fmt.Sprintf("record %d: wal: decode envelope: unexpected end of JSON input", k),
		},
		{
			name:     "unknown record type",
			payloads: with(payloads, k, []byte(`{"type":"upsert"}`)),
			at:       k,
			read:     fmt.Sprintf(`record %d: wal: unknown record type "upsert"`, k),
		},
		{
			name:     "undecodable tuple",
			payloads: with(payloads, k, badTuple),
			at:       k,
			read:     fmt.Sprintf(`record %d: hub: run record for source %q: tuple 0: attribute "name": number 7 for string attribute`, k, src),
		},
		{
			name:     "unspelled run",
			payloads: with(payloads, k, bytes.Replace(payloads[k-2], []byte(`,"tuples":`), []byte(`, "tuples":`), 1)),
			at:       k,
			read:     fmt.Sprintf(`record %d: wal: not spelled as this format writes a run (byte %d)`, k, len(src)+12),
		},
		{
			name:     "a run of two outside a registration",
			payloads: with(payloads, k, wal.AppendRun(nil, src, false, relation.RowsOf(items[0].Tuple, items[1].Tuple))),
			at:       k,
			read:     fmt.Sprintf(`record %d: hub: run record for source %q outside a registration: an insert is one tuple in one record`, k, src),
		},
		{
			name:     "rejected insert",
			payloads: with(payloads, k, payloads[k-2]), // record k-1's tuple again
			at:       k,
			read: fmt.Sprintf(`record %d: hub: source %q: relation %s: key (name,loc) violation: tuple %v duplicates tuple %d`,
				k, src, src, items[k-replayHead-2].Tuple, k-replayHead-2),
		},
		{
			name:     "invalid UTF-8 tuple",
			payloads: utf8Payloads,
			at:       k,
			read: fmt.Sprintf(`record %d: hub: source %q: relation %s: key (name,loc) violation: tuple %v duplicates tuple %d`,
				k, src, src, fffd, k-replayHead-2),
		},
		{
			name:     "broken uniqueness",
			payloads: with(payloads, k, insert(tw.twin)),
			open:     unsound,
		},
		{
			// The read stops at the last record, the pair build finds the
			// earlier break.
			name:     "broken uniqueness before an unknown record type",
			payloads: with(with(payloads, k, insert(tw.twin)), n, []byte(`{"type":"upsert"}`)),
			at:       n,
			read:     fmt.Sprintf(`record %d: wal: unknown record type "upsert"`, n),
			open:     unsound,
		},
	}
}

func (c replayCase) check(t *testing.T, dir string, k int) {
	if c.open == "" && c.mangle == nil {
		c.open = c.read
	}
	stop := c.at
	if stop == 0 {
		stop = len(c.payloads) + 1
	}
	// The read itself, every case, the corrupt frame included: it stops
	// at record `at` having taken records 1..at-1, exactly what reading
	// those alone takes, and nothing of a record past them.
	want, _ := readTailOf(t, dir, c.payloads[:stop-1], 0, nil)
	got, err := readTailOf(t, dir, c.payloads, k, c.mangle)
	if (err == nil) != (c.read == "") || err != nil && err.Error() != c.read {
		t.Fatalf("read error = %v\nwant %s", err, c.read)
	}
	if got.applied != stop-1 {
		t.Fatalf("read applied %d records, want %d", got.applied, stop-1)
	}
	for s, a := range got.arrived {
		if len(a.seqs) > 0 && a.seqs[len(a.seqs)-1] >= uint64(stop) {
			t.Fatalf("source %d took record %d, at or past record %d", s, a.seqs[len(a.seqs)-1], stop)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the read took\n%+v\nreading records 1..%d alone takes\n%+v", got, stop-1, want)
	}

	before := runtime.NumGoroutine()
	writeSegment(t, dir, c.payloads, k, c.mangle)
	h, info, err := openOn(dir, Options{})
	if c.open != "" {
		// Everything but a frame error fails the open: closed, and with
		// no goroutine left behind.
		if wantOpen := "hub: open " + dir + ": " + c.open; err == nil || err.Error() != wantOpen {
			t.Fatalf("Open error = %v\nwant %s", err, wantOpen)
		}
		if h != nil || info != nil {
			t.Fatalf("failed Open returned a hub or recovery info: %v %v", h, info)
		}
		mustNotLeakGoroutines(t, before)
		return
	}
	// A frame that fails its checks is caught by the log's read, which
	// drops the tail and reports it: the hub is records 1..k-1.
	if err != nil {
		t.Fatalf("open over a corrupt tail: %v", err)
	}
	gotState, gotStats := stateOf(h), h.Stats()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if info.Replayed != k-1 || info.LastSeq != uint64(k-1) || !strings.Contains(info.TailDamage, "checksum mismatch") {
		t.Fatalf("open over a corrupt tail: %+v", info)
	}
	writeSegment(t, dir, c.payloads[:k-1], 0, nil)
	ref, info, err := openOn(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if info.Replayed != k-1 {
		t.Fatalf("reference replayed %d records, want %d", info.Replayed, k-1)
	}
	mustEqualState(t, "state after the truncating open", gotState, stateOf(ref))
	if s := ref.Stats(); gotStats != s {
		t.Fatalf("stats after the truncating open %+v, want %+v", gotStats, s)
	}
}

// tailRead is what a read of the log tail left in a recovery: the records
// it applied, each source's tuples and the records they arrived by, and
// each link's cut.
type tailRead struct {
	applied int
	rels    [][]relation.Tuple
	arrived []arrivals
	cuts    []linkCut
}

// readTailOf reads dir's log, its one segment the payloads framed and
// mangled as writeSegment frames them, into a fresh recovery. A read that
// stops at damage — a frame that fails its checks — returns the damage as
// its error. The read must leave no goroutine behind.
func readTailOf(t *testing.T, dir string, payloads [][]byte, k int, mangle func([]byte)) (tailRead, error) {
	t.Helper()
	before := runtime.NumGoroutine()
	writeSegment(t, dir, payloads, k, mangle)
	l, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &recovery{h: New()}
	applied, _, err := r.readTail(l, 0)
	if d := l.Damage(); err == nil && d != nil {
		err = d
	}
	if cerr := l.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	mustNotLeakGoroutines(t, before)
	got := tailRead{applied: applied, arrived: r.arrived, cuts: r.cuts}
	for _, s := range r.h.sources {
		got.rels = append(got.rels, s.rel.Tuples())
	}
	return got, err
}

// twin is a tuple of replayLog's first source, logged before record k,
// that the second source matches, under a fresh key of its own: the
// source-position of the tuple it copies (of) and of that tuple's
// partner, the partner's record, and the other source's name.
type twin struct {
	twin                       relation.Tuple
	of, partner, partnerRecord int
	other                      string
}

func twinOf(t *testing.T, dir string, items []Insert, k int) twin {
	t.Helper()
	h, _, err := openOn(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	first := 0
	for first < len(items) && items[first].Source == items[0].Source {
		first++
	}
	if k-replayHead-1 >= first {
		t.Fatalf("record %d is not an insert into %s", k, items[0].Source)
	}
	for i := k - replayHead - 2; i >= 0; i-- {
		c, err := h.ClusterAt(items[0].Source, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Members) == 2 {
			tw := twin{twin: items[i].Tuple.Clone(), of: i, partner: c.Members[1].Index, other: items[first].Source}
			tw.twin[1] = value.String(tw.twin[1].Str() + " annex")
			tw.partnerRecord = replayHead + 1 + first + tw.partner
			return tw
		}
	}
	t.Fatalf("no tuple before record %d is matched", k)
	return twin{}
}

// TestOpenRefusesATransitiveBreakAtItsRecord: three sources linked in a
// triangle, each pair sound, whose tuples chain two of one source into
// one cluster. The log is CRC-clean; Open refuses it naming the record
// that closes the chain — the insert, or the link when it comes last —
// and the link and pair the fold refused. The chain closes in the first
// pair's table, at an insert later than the third pair's edge: a fold
// that took the tables one after the other would blame that edge's
// record.
func TestOpenRefusesATransitiveBreakAtItsRecord(t *testing.T) {
	schemaOf := func(name string, attrs ...string) *schema.Schema {
		as := []schema.Attribute{{Name: "id", Kind: value.KindString}}
		for _, a := range attrs {
			as = append(as, schema.Attribute{Name: a, Kind: value.KindString})
		}
		return schema.MustNew(name, as, []string{"id"})
	}
	on := func(left, right, attr string) PairSpec {
		return PairSpec{Left: left, Right: right, ExtKey: []string{attr},
			Attrs: []match.AttrMap{{Name: attr, R: attr, S: attr}}}
	}
	record := func(env wal.Envelope) []byte {
		p, err := env.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var regs [][]byte
	for _, sch := range []*schema.Schema{schemaOf("A", "k", "j"), schemaOf("B", "k"), schemaOf("C", "k", "j")} {
		regs = append(regs, record(wal.Envelope{Type: wal.TypeSourceBegin, SourceBegin: &wal.SourceBeginRec{
			Name: sch.Name(), Schema: wal.EncodeSchema(sch),
		}}), wal.AppendRun(nil, sch.Name(), false, relation.Rows{}))
	}
	linkRec := func(spec PairSpec) []byte {
		rec := linkRecFromSpec(spec)
		return record(wal.Envelope{Type: wal.TypeLink, Link: &rec})
	}
	ab, bc, ac := linkRec(on("A", "B", "k")), linkRec(on("B", "C", "k")), linkRec(on("A", "C", "j"))
	ins := func(src string, vals ...string) []byte {
		return wal.AppendRun(nil, src, false, relation.RowsOf(strs(vals...)))
	}
	// a1-c0 in A-C, b0-c0 in B-C, then a0-b0 in A-B closes a0…a1.
	chain := [][]byte{ins("C", "c0", "1", "20"), ins("A", "a1", "2", "20"), ins("B", "b0", "1"), ins("A", "a0", "1", "10")}
	after := ins("B", "b1", "9")
	for _, c := range []struct {
		name     string
		payloads [][]byte
		want     string
	}{
		{"at the insert", append(append(append(regs, ab, bc, ac), chain...), after),
			`record 13: hub: link "A"-"B": pair (1,0): transitive uniqueness violation: tuples 1 and 0 of source "A"`},
		{"at the link", append(append(append(regs, ab, bc), chain...), ac, after),
			`record 13: hub: link "A"-"C": pair (0,0): transitive uniqueness violation: tuples 0 and 1 of source "A"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSegment(t, dir, c.payloads, 0, nil)
			before := runtime.NumGoroutine()
			h, _, err := openOn(dir, Options{})
			if want := "hub: open " + dir + ": " + c.want; h != nil || !errors.Is(err, store.ErrUniqueness) || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("Open = %v\nwant %s…", err, want)
			}
			mustNotLeakGoroutines(t, before)
		})
	}
}

// TestReplayDiscardsAbandonedGroupFarBehind: a registration the log
// abandons after the first record of its run, followed by far more records than
// the replay channel holds. The group is forgotten at the next record,
// counted nowhere, and everything after it replays as if it were not
// there.
func TestReplayDiscardsAbandonedGroupFarBehind(t *testing.T) {
	dir, payloads, _ := replayLog(t)
	ref, info, err := openOn(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, wantReplayed := stateOf(ref), info.Replayed
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	ghost := schema.MustNew("ghost", []schema.Attribute{{Name: "id", Kind: value.KindString}})
	begin, err := wal.Envelope{Type: wal.TypeSourceBegin, SourceBegin: &wal.SourceBeginRec{
		Name: "ghost", Schema: wal.EncodeSchema(ghost),
	}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	chunk := wal.AppendRun(nil, "ghost", true, relation.RowsOf(relation.Tuple{value.String("g1")}, relation.Tuple{value.String("g2")}))
	if len(payloads) <= defaultStreamWindow {
		t.Fatalf("only %d records follow the abandoned group", len(payloads))
	}
	writeSegment(t, dir, append([][]byte{begin, chunk}, payloads...), 0, nil)
	h, info, err := openOn(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if info.Replayed != wantReplayed || info.LastSeq != uint64(len(payloads)+2) {
		t.Fatalf("replayed %d records through %d, want %d through %d",
			info.Replayed, info.LastSeq, wantReplayed, len(payloads)+2)
	}
	if _, err := h.SourceSchema("ghost"); err == nil {
		t.Fatal("the abandoned registration reached the hub")
	}
	mustEqualState(t, "replay past an abandoned group", stateOf(h), want)
}
