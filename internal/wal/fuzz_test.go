package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"sync/atomic"
	"testing"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// FuzzWALDecode throws arbitrary bytes at the frame parser, held line by
// line to strconv's reading of the fields (refParseFrame), at the frame
// cutter, at the windowed reader and the segment read over it and — each accepted
// frame's payload — at the run reader or the envelope decoder, as its
// first bytes say (a record of a retired tuple format, like the second
// seed and the corpus files, must be refused there, not panic). The properties: cutting never panics, always
// terminates in io.EOF or a *CorruptError, and every accepted frame
// re-encodes to exactly the bytes consumed — so the cutter can never
// "repair" a frame into something the writer would not have produced.
// The reader, over the same bytes as a stream read window bytes at a
// time (from 1, so frames straddle windows), cuts the same frames and
// ends with the same error at the same offset. The segment read over it
// hands over the frames that continue the sequence and stops after the
// last of them, with damage exactly when bytes are left, so the offset
// recovery truncates to is always a valid re-append point.
func FuzzWALDecode(f *testing.F) {
	good := func(payloads ...string) []byte {
		var buf bytes.Buffer
		for i, p := range payloads {
			frame, err := EncodeRecord(uint64(i+1), []byte(p))
			if err != nil {
				f.Fatal(err)
			}
			buf.Write(frame)
		}
		return buf.Bytes()
	}
	f.Add([]byte(nil), uint8(0))
	f.Add(good(`{"type":"insert","insert":{"source":"zagat","tuple":[{"k":"string","v":"wok"}]}}`), uint8(7))
	f.Add(good(`{}`, `{"a":1}`, ``), uint8(1))
	f.Add(good(`{}`, `{"a":1}`)[:20], uint8(3)) // torn tail
	corrupt := good(`{"crc":"will-break"}`)
	corrupt[len(corrupt)-4] ^= 0x20
	f.Add(corrupt, uint8(12))
	f.Add([]byte("w1 1 00000000 3 abc\n"), uint8(0))
	f.Add([]byte("w1 2 deadbeef 100 short\n"), uint8(4))
	f.Add([]byte("v9 1 00000000 0 \n"), uint8(255))
	f.Add([]byte("w1 7 364B3FB7 3 abc\nw1 18446744073709551616 364b3fb7 3 abc\nw1 18446744073709551615 364b3fb7 03 abc\nw1 1 364b3fb7 9223372036854775808 abc\n"), uint8(9))
	f.Add(good(
		`{"type":"add_source","v":2,"add_source":{"name":"zagat","schema":{"name":"zagat","attrs":[{"name":"name","kind":"string"},{"name":"stars","kind":"int"}],"keys":[["name"]]},"tuples":[["wok",3],["\u003cb\u003e",null]]}}`,
		`{"type":"insert","v":2,"insert":{"source":"zagat","tuple":["wok \"2\"",-0]}}`,
		`{"type":"source_chunk","v":2,"source_chunk":{"name":"zagat","tuples":[],"final":true}}`), uint8(30))
	f.Add(good(
		`{"type":"source_begin","v":3,"source_begin":{"name":"zagat","schema":{"name":"zagat","attrs":[{"name":"name","kind":"string"}],"keys":[["name"]]}}}`,
		`{"source":"zagat","more":true,"tuples":[["wok"]]}`,
		`{"source":"zagat","tuples":[["\u003cb\u003e"]]}`,
		`{"source":"zagat","tuples":[["w\"o\"k"]]}`), uint8(5))

	f.Fuzz(func(t *testing.T, data []byte, window uint8) {
		// Every line reads, and fails, as strconv's field parsing read it.
		for line := range bytes.Lines(data) {
			line = bytes.TrimSuffix(line, []byte("\n"))
			rec, reason := parseFrame(line)
			ref, refReason := refParseFrame(line)
			if reason != refReason || rec.Seq != ref.Seq || !bytes.Equal(rec.Payload, ref.Payload) {
				t.Fatalf("parseFrame(%q) = %d %q, %q; strconv's reading %d %q, %q", line, rec.Seq, rec.Payload, reason, ref.Seq, ref.Payload, refReason)
			}
		}
		cut := NewFrameCutter(data)
		var reencoded bytes.Buffer
		var frames []string
		// The frames that continue the sequence from 1, and their bytes.
		contiguous, prefix, inSeq := uint64(0), 0, true
		var end error
		for {
			rec, raw, err := cut.Next()
			if end = err; err == io.EOF {
				break
			}
			if err != nil {
				if _, ok := err.(*CorruptError); !ok {
					t.Fatalf("cutter error is neither EOF nor CorruptError: %v", err)
				}
				break
			}
			frames = append(frames, string(raw))
			if IsRun(rec.Payload) {
				CutRun(rec.Payload) // what it reads, FuzzRunChunk holds
			} else if env, err := DecodeEnvelope(rec.Payload); err == nil && !env.bodyOK() {
				t.Fatalf("accepted envelope %s has no body matching its type", rec.Payload)
			}
			frame, err := EncodeRecord(rec.Seq, rec.Payload)
			if err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
			if !bytes.Equal(frame, raw) {
				t.Fatalf("re-encoded record differs from the raw frame handed back")
			}
			reencoded.Write(frame)
			if inSeq = inSeq && rec.Seq == contiguous+1; inSeq {
				contiguous, prefix = rec.Seq, reencoded.Len()
			}
		}
		consumed := data[:cut.Offset()]
		if !bytes.Equal(reencoded.Bytes(), consumed) {
			t.Fatalf("re-encoded records differ from the %d consumed bytes", cut.Offset())
		}
		// The reader reads the stream as the cutter read the buffer: the
		// same frames, then the same end at the same offset.
		w := int(window) + 1
		rd := NewFrameReader(bytes.NewReader(data), w)
		for i := 0; ; i++ {
			rec, raw, err := rd.Next()
			if err != nil {
				if i != len(frames) || fmt.Sprint(err) != fmt.Sprint(end) || rd.Offset() != cut.Offset() {
					t.Fatalf("%d-byte windows ended after %d frames with %v at offset %d, the cutter after %d with %v at %d",
						w, i, err, rd.Offset(), len(frames), end, cut.Offset())
				}
				break
			}
			if i == len(frames) || string(raw) != frames[i] || !bytes.HasSuffix(raw[:len(raw)-1], rec.Payload) {
				t.Fatalf("%d-byte windows cut frame %d as %q, not the cutter's", w, i, raw)
			}
		}

		var handed uint64
		last, off, dmg, err := readFrames(NewFrameReader(bytes.NewReader(data), w), segName(1), 0, 0, new(atomic.Int64), func(recs []Record) error {
			for _, rec := range recs {
				if handed++; rec.Seq != handed {
					t.Fatalf("segment read handed over record %d as the %dth", rec.Seq, handed)
				}
			}
			return nil
		})
		if err != nil || last != contiguous || handed != contiguous || off != int64(prefix) || (dmg == nil) != (prefix == len(data)) || dmg != nil && dmg.Offset != off {
			t.Fatalf("segment read = seq %d (%d handed over), offset %d, damage %v, error %v; the first %d of %d bytes hold %d contiguous records",
				last, handed, off, dmg, err, prefix, len(data), contiguous)
		}
	})
}

// refParseFrame is parseFrame as strconv reads the fields, the reference
// its hand-rolled digits are held to: the same record, or the same
// reason.
func refParseFrame(line []byte) (Record, string) {
	mg, rest, ok := bytes.Cut(line, []byte{' '})
	if !ok || string(mg) != magic {
		return Record{}, "bad magic"
	}
	seqF, rest, ok := bytes.Cut(rest, []byte{' '})
	if !ok {
		return Record{}, "missing checksum field"
	}
	seq, err := strconv.ParseUint(string(seqF), 10, 64)
	if err != nil || seq == 0 {
		return Record{}, "bad sequence number"
	}
	crcF, rest, ok := bytes.Cut(rest, []byte{' '})
	if !ok || len(crcF) != 8 {
		return Record{}, "bad checksum field"
	}
	wantCRC, err := strconv.ParseUint(string(crcF), 16, 32)
	if err != nil {
		return Record{}, "bad checksum field"
	}
	lenF, payload, ok := bytes.Cut(rest, []byte{' '})
	n, err := strconv.ParseUint(string(lenF), 10, 63)
	if err != nil || n > uint64(maxPayload) {
		return Record{}, "bad length field"
	}
	if n > 0 && !ok {
		return Record{}, "missing payload"
	}
	if uint64(len(payload)) != n {
		return Record{}, fmt.Sprintf("payload length %d, frame declares %d", len(payload), n)
	}
	if crc32.Checksum(payload, castagnoli) != uint32(wantCRC) {
		return Record{}, "checksum mismatch"
	}
	if seqF[0] == '0' || (lenF[0] == '0' && len(lenF) > 1) || !ok || bytes.ContainsAny(crcF, "ABCDEF") {
		return Record{}, "non-canonical frame"
	}
	return Record{Seq: seq, Payload: payload}, ""
}

// refRun is a run record as encoding/json writes and reads it: the
// reference the run codec is held to.
type refRun struct {
	Source string          `json:"source"`
	More   bool            `json:"more,omitempty"`
	Tuples json.RawMessage `json:"tuples"`
}

// FuzzRunChunk holds the run codec — the one record that carries tuples:
// a log insert's run of one, a registration's seeds, a snapshot run's
// chunk — to encoding/json's reading of refRun. AppendRun writes byte for
// byte what encoding/json writes for the same run — source names with
// quotes, backslashes, control bytes, <>&, U+2028/2029, non-ASCII and
// invalid UTF-8; tuples of every kind — and CutRun and Tuples read back
// what the bytes say: the name as JSON spells it (U+FFFD for each byte
// that is not UTF-8), the mark and the tuples written. On an arbitrary
// payload, whatever CutRun cuts and Tuples reads whole, encoding/json
// reads as the same name, mark and tuple bytes; neither panics. A record
// of an earlier format is one such payload, and is refused.
func FuzzRunChunk(f *testing.F) {
	sch := schema.MustNew("zagat", []schema.Attribute{
		{Name: "name", Kind: value.KindString}, {Name: "n", Kind: value.KindInt},
		{Name: "x", Kind: value.KindFloat}, {Name: "ok", Kind: value.KindBool},
		{Name: "note", Kind: value.KindString},
	})
	wok := relation.Tuple{value.String("wok"), value.Int(3), value.Float(0.5), value.Bool(true), value.Null}
	for _, p := range [][]byte{
		AppendRun(nil, "zagat", false, relation.RowsOf(wok)),           // a log insert
		AppendRun(nil, "zagat", true, relation.RowsOf(wok, wok)),       // a registration's seeds, continued
		AppendRun(nil, "zagat", false, relation.Rows{}),                // a registration without seeds
		AppendRun(nil, "z\"a\\<&>\u2028", false, relation.RowsOf(wok)), // a snapshot run's last chunk
		[]byte(`{"source":"zagat","tuples":[["w<ok\"",-9223372036854775808,-0,false,"NaN"]]}`),
		[]byte(`{"source":"z\u0061","more":true,"tuples":[[ "x" ,1e2,1, true, null ] ]}`),
		[]byte(`{"source":"","tuples":[["a",1,1,true,null]]}`),
		[]byte(`{"source": "zagat","tuples":[]}`),
		[]byte(`{"source":"zagat","tuples":[],"more":true}`),
		[]byte(`{"source":"zagat","more":false,"tuples":[]}`),
		[]byte(`{"source":"zagat","tuples":[["a",1,1,true,null]]}{"x":[1]}`),
		[]byte(`{"type":"insert","v":2,"insert":{"source":"zagat","tuple":["wok",3,0.5,true,null]}}`),
		[]byte(`{"v2":"source","run":0,"chunk":1,"last":true,"name":"zagat","tuples":[["wok",3,0.5,true,null]]}`),
	} {
		f.Add(p, "src\x00<&>\u2028\u2029\xff\"", "wok\\", int64(-7), uint8(2), true)
	}
	f.Fuzz(func(t *testing.T, payload []byte, name, s string, n int64, k uint8, more bool) {
		var tb relation.TupleBlocks
		if run, err := CutRun(payload); err == nil {
			if _, err := run.Tuples(&tb, sch); err == nil {
				var ref refRun
				if err := json.Unmarshal(payload, &ref); err != nil || ref.Source != string(run.Source) || ref.More != run.More || !bytes.Equal(ref.Tuples, run.tuples) {
					t.Fatalf("CutRun read %s as (%q, %v, %s); encoding/json as %+v, %v", payload, run.Source, run.More, run.tuples, ref, err)
				}
			}
		}

		// A written run, for any name and tuples: encoding/json's bytes, read
		// back as written — ts's strings as JSON spells them (spelled), in
		// read.
		spelled := func(s string) string { return string([]rune(s)) }
		ts, read := make([]relation.Tuple, int(k%4)), make([]relation.Tuple, int(k%4))
		for i := range ts {
			m := n + int64(i)
			ts[i] = relation.Tuple{value.String(s + strconv.Itoa(i)), value.Int(m), value.Float(float64(m) / 7), value.Bool(m%2 == 0), value.Null}
			read[i] = append(relation.Tuple{value.String(spelled(s) + strconv.Itoa(i))}, ts[i][1:]...)
		}
		p := AppendRun(nil, name, more, relation.RowsOf(ts...))
		want, err := json.Marshal(refRun{Source: name, More: more, Tuples: relation.AppendTuplesJSON(nil, relation.RowsOf(ts...))})
		if err != nil || !bytes.Equal(p, want) {
			t.Fatalf("AppendRun wrote %s, encoding/json %s (%v)", p, want, err)
		}
		run, err := CutRun(p)
		if (err == nil) != (name != "") || !IsRun(p) {
			t.Fatalf("CutRun read %s: %v", p, err)
		}
		if name == "" {
			return
		}
		got, err := run.Tuples(&tb, sch)
		if string(run.Source) != spelled(name) || run.More != more || err != nil || got.Len() != len(read) {
			t.Fatalf("CutRun read %s as (%q, %v, %d tuples), %v", p, run.Source, run.More, got.Len(), err)
		}
		for i := range got.Len() {
			if tup := got.TupleInto(nil, i); !tup.Identical(read[i]) {
				t.Fatalf("CutRun read %s's tuple %d as %v, want %v", p, i, tup, read[i])
			}
		}
	})
}
