package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSectionWriterRoundTrip frames chunks through a SectionWriter and
// reads them back with a FrameCutter over the stream, a few bytes at a
// time: sequence numbers count up from the section's first, raw bytes
// hash to the writer's content address, and the reader hands back
// exactly the bytes written.
func TestSectionWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSectionWriter(&buf, 5)
	payloads := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`), []byte(`{}`)}
	for _, p := range payloads {
		if err := sw.WriteChunk(p); err != nil {
			t.Fatal(err)
		}
	}
	if sw.Chunks() != 3 {
		t.Fatalf("chunks = %d", sw.Chunks())
	}
	if sw.Bytes() != int64(buf.Len()) {
		t.Fatalf("bytes = %d, buffer holds %d", sw.Bytes(), buf.Len())
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := sw.Sum(); got != hex.EncodeToString(sum[:]) {
		t.Fatalf("content address %s != sha256 of frame bytes", got)
	}

	sc := NewFrameReader(bytes.NewReader(buf.Bytes()), 5)
	var raws []byte
	for i := 0; ; i++ {
		rec, raw, err := sc.Next()
		if err == io.EOF {
			if i != len(payloads) {
				t.Fatalf("reader stopped after %d frames", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Seq != uint64(i+5) {
			t.Fatalf("frame %d has seq %d", i, rec.Seq)
		}
		if !bytes.Equal(rec.Payload, payloads[i]) {
			t.Fatalf("frame %d payload %q", i, rec.Payload)
		}
		raws = append(raws, raw...)
	}
	if !bytes.Equal(raws, buf.Bytes()) {
		t.Fatal("reader raw bytes differ from written bytes")
	}
}

// TestFrameCutterToleratesSeqRestarts: two sections back-to-back in
// one stream read cleanly (a log segment's read rejects the restart).
func TestFrameCutterToleratesSeqRestarts(t *testing.T) {
	var buf bytes.Buffer
	for range 2 {
		sw := NewSectionWriter(&buf, 1)
		if err := sw.WriteChunk([]byte(`{"x":1}`)); err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteChunk([]byte(`{"x":2}`)); err != nil {
			t.Fatal(err)
		}
	}
	sc := NewFrameReader(bytes.NewReader(buf.Bytes()), 16)
	var seqs []uint64
	for {
		rec, _, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, rec.Seq)
	}
	want := []uint64{1, 2, 1, 2}
	if len(seqs) != len(want) {
		t.Fatalf("seqs = %v", seqs)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("seqs = %v, want %v", seqs, want)
		}
	}
	// A log segment's read must reject the same stream at the restart.
	if last, _, dmg, err := readFrames(NewFrameReader(bytes.NewReader(buf.Bytes()), 16), segName(1), 0, 0, nil); err != nil || last != 2 || dmg == nil {
		t.Fatalf("segment read accepted a sequence restart: seq %d, damage %v, error %v", last, dmg, err)
	}
}

// TestFrameCutterStopsAtCorruption: a damaged frame surfaces as a
// CorruptError with everything before it intact.
func TestFrameCutterStopsAtCorruption(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSectionWriter(&buf, 1)
	sw.WriteChunk([]byte(`{"ok":true}`))
	good := buf.Len()
	buf.WriteString("w1 2 00000000 4 ruin\n")
	sc := NewFrameReader(bytes.NewReader(buf.Bytes()), 16)
	if _, _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Next(); err == nil {
		t.Fatal("reader accepted a bad checksum")
	} else if _, ok := err.(*CorruptError); !ok {
		t.Fatalf("error is not CorruptError: %v", err)
	}
	if sc.Offset() != int64(good) {
		t.Fatalf("offset %d, want %d (end of last good frame)", sc.Offset(), good)
	}
}

// TestFrameCapHook: lowering the cap makes both encode and decode
// reject frames beyond it, and the restore function undoes it.
func TestFrameCapHook(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 2048)
	frame, err := EncodeRecord(1, big)
	if err != nil {
		t.Fatal(err)
	}
	restore := SetFrameCapForTesting(1024)
	if _, err := EncodeRecord(1, big); err == nil {
		t.Fatal("encode accepted an over-cap payload")
	}
	if _, err := DecodeRecord(frame); err == nil {
		t.Fatal("decode accepted an over-cap frame")
	}
	restore()
	if _, err := EncodeRecord(1, big); err != nil {
		t.Fatalf("cap not restored: %v", err)
	}
}

// TestSyncedTracksFsyncBoundary: Synced advances only on Sync (and
// Rotate/Close), never on bare appends — the contract the power-loss
// harness builds on.
func TestSyncedTracksFsyncBoundary(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	defer l.Close()
	if _, err := l.Append([]byte(`{"n":1}`)); err != nil {
		t.Fatal(err)
	}
	if seq, _ := l.Synced(); seq != 0 {
		t.Fatalf("bare append advanced the sync boundary to %d", seq)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	seq, off := l.Synced()
	if seq != 1 || off <= 0 {
		t.Fatalf("after sync: seq=%d off=%d", seq, off)
	}
	if _, err := l.Append([]byte(`{"n":2}`)); err != nil {
		t.Fatal(err)
	}
	if s, o := l.Synced(); s != seq || o != off {
		t.Fatalf("append moved the sync boundary: %d/%d -> %d/%d", seq, off, s, o)
	}
	// Truncating to the boundary leaves a log that reopens cleanly at
	// the synced record.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Close syncs, so re-derive the mid-point boundary by hand: cut the
	// file back to the first record's end.
	seg := filepath.Join(dir, segName(1))
	if err := os.Truncate(seg, off); err != nil {
		t.Fatal(err)
	}
	l2 := open(t, dir)
	defer l2.Close()
	if l2.LastSeq() != 1 {
		t.Fatalf("reopened log ends at %d, want the sync boundary 1", l2.LastSeq())
	}
	if l2.Damage() != nil {
		t.Fatalf("clean truncation at a frame boundary reported damage: %v", l2.Damage())
	}
}

// TestChunkedSourceEnvelopes round-trips the source_begin record that
// opens a registration, which carries the tuple format, and pins the
// one-body-per-envelope validation.
func TestChunkedSourceEnvelopes(t *testing.T) {
	begin := Envelope{Type: TypeSourceBegin, SourceBegin: &SourceBeginRec{
		Name:   "s",
		Schema: SchemaRec{Name: "s", Attrs: []AttrRec{{Name: "a", Kind: "string"}}, Keys: [][]string{{"a"}}},
	}}
	link := Envelope{Type: TypeLink, Link: &LinkRec{Left: "s", Right: "r", Attrs: []AttrMapRec{{Name: "a", R: "a", S: "a"}}}}
	for _, env := range []Envelope{begin, link} {
		payload, err := env.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEnvelope(payload)
		if err != nil {
			t.Fatal(err)
		}
		if env.V = env.v(); !reflect.DeepEqual(got, env) {
			t.Fatalf("%s round-tripped as %+v", payload, got)
		}
	}
	// Mismatched body fails both ways.
	bad := Envelope{Type: TypeSourceBegin, Link: link.Link}
	if _, err := bad.Encode(); err == nil {
		t.Fatal("encode accepted a mismatched body")
	}
	if _, err := DecodeEnvelope([]byte(`{"type":"source_begin","v":3}`)); err == nil {
		t.Fatal("decode accepted a bodyless record")
	}
	if _, err := DecodeEnvelope([]byte(`{"type":"link","link":{"left":"a","right":"b"},"source_begin":{"name":"s"}}`)); err == nil {
		t.Fatal("decode accepted two bodies")
	}
}
