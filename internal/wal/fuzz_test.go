package wal

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"testing"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// FuzzWALDecode throws arbitrary bytes at the frame parser, held line by
// line to strconv's reading of the fields (refParseFrame), at the frame
// cutter, at the windowed reader and the segment read over it and — each accepted
// frame's payload — at the envelope decoder (a record of the retired
// tuple format, like the second seed and the corpus files, must be
// refused there, not panic). The properties: cutting never panics, always
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
			if env, err := DecodeEnvelope(rec.Payload); err == nil && !env.bodyOK() {
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
		last, off, dmg, err := readFrames(NewFrameReader(bytes.NewReader(data), w), segName(1), 0, 0, func(recs []Record) error {
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

// FuzzParseInsert holds the hand-rolled insert reader to the envelope
// decoder it stands in for. Whatever payload ParseInsert cuts, and whose
// tuple bytes relation.ParseTupleJSON reads whole, DecodeEnvelope decodes
// to the same source and a tuple that parses to the same values. And
// AppendInsert's output, for any source name and any tuple — quotes,
// backslashes, control bytes and invalid UTF-8 included — reads back by
// DecodeEnvelope as the source JSON can spell (U+FFFD for each byte that
// is not UTF-8) and the tuple's own bytes, and by ParseInsert, which must
// read it when the source is written unescaped, as the same.
func FuzzParseInsert(f *testing.F) {
	sch := schema.MustNew("zagat", []schema.Attribute{
		{Name: "name", Kind: value.KindString}, {Name: "n", Kind: value.KindInt},
		{Name: "note", Kind: value.KindString}, {Name: "x", Kind: value.KindFloat},
		{Name: "ok", Kind: value.KindBool},
	})
	f.Add([]byte(`{"type":"insert","v":2,"insert":{"source":"zagat","tuple":["wok",3,null,-0.5e3,true]}}`), "zagat", "wok", int64(3))
	f.Add([]byte(`{"type":"insert","v":2,"insert":{"source":"zagat","tuple":["w\u00e9\"k\\\n",1,"`+"\xff"+`",2,false]}}`), "z\"a\\g", "\x1f\x00", int64(-1<<63))
	f.Add([]byte(`{"type":"insert","v":2,"insert":{"source":"z\u0061","tuple":[]}}`), "caf\xe9", "\xff\xfe<&>", int64(0))
	f.Add([]byte(`{"type":"insert","v":2,"insert":{"source":"zagat","tuple":[ "x" ,1e2, "3" ,1, null ] }}`), "\u2028", "", int64(7))
	f.Add([]byte(`{"type":"insert","v":2,"insert":{"source":"zagat","tuple":["a",1,null,2,true]},"x":1}}`), "", "null", int64(1))
	f.Add([]byte(`{"type":"insert","v":2,"insert":{"source":"zagat","tuple":["\x41",01,1.,2e,-]}}`), "zagat", "\"", int64(-7))
	f.Fuzz(func(t *testing.T, payload []byte, source, s string, n int64) {
		if src, tup, ok := ParseInsert(payload); ok {
			if fast, err := relation.ParseTupleJSON(sch, tup); err == nil {
				env, err := DecodeEnvelope(payload)
				if err != nil || env.Type != TypeInsert || env.Insert.Source != string(src) {
					t.Fatalf("ParseInsert read %q as (%q, %v); DecodeEnvelope: %+v %v", payload, src, fast, env.Insert, err)
				}
				if slow, err := relation.ParseTupleJSON(sch, env.Insert.Tuple); err != nil || !slow.Identical(fast) {
					t.Fatalf("ParseInsert read %q's tuple as %v, DecodeEnvelope's reads as %v, %v", payload, fast, slow, err)
				}
			}
		}
		tuple := relation.Tuple{value.String(s), value.Int(n), value.Null, value.Float(float64(n) / 7), value.Bool(n%2 == 0)}
		p := AppendInsert(nil, source, tuple)
		want := string([]rune(source))
		env, err := DecodeEnvelope(p)
		if err != nil || env.Insert.Source != want || !bytes.Equal(env.Insert.Tuple, relation.AppendTupleJSON(nil, tuple)) {
			t.Fatalf("DecodeEnvelope read %q as %+v, %v", p, env.Insert, err)
		}
		slow, err := relation.ParseTupleJSON(sch, env.Insert.Tuple)
		if err != nil {
			t.Fatalf("tuple of %q: %v", p, err)
		}
		src, tup, ok := ParseInsert(p)
		if ok {
			if fast, err := relation.ParseTupleJSON(sch, tup); string(src) != want || err != nil || !fast.Identical(slow) {
				t.Fatalf("ParseInsert read %q as (%q, %v), %v", p, src, fast, err)
			}
		}
		if plain := `"` + source + `"`; !ok && string(value.AppendJSONString(nil, source)) == plain {
			t.Fatalf("ParseInsert refused %q, whose source is written unescaped", p)
		}
	})
}
