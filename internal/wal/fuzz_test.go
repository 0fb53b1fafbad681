package wal

import (
	"bytes"
	"io"
	"testing"
)

// FuzzWALDecode throws arbitrary bytes at the frame scanner, at the
// segment scan over it and — each accepted frame's payload — at the
// envelope decoder (a record of the retired tuple format, like the second
// seed and the corpus files, must be refused there, not panic). The
// properties: scanning never panics, always
// terminates in io.EOF or a *CorruptError, and every accepted frame
// re-encodes to exactly the bytes consumed — so the scanner can never
// "repair" a frame into something the writer would not have produced.
// The segment scan stops after the last frame that continues the
// sequence, with damage exactly when bytes are left, so the offset Open
// truncates to is always a valid re-append point.
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
	f.Add([]byte(nil))
	f.Add(good(`{"type":"insert","insert":{"source":"zagat","tuple":[{"k":"string","v":"wok"}]}}`))
	f.Add(good(`{}`, `{"a":1}`, ``))
	f.Add(good(`{}`, `{"a":1}`)[:20]) // torn tail
	corrupt := good(`{"crc":"will-break"}`)
	corrupt[len(corrupt)-4] ^= 0x20
	f.Add(corrupt)
	f.Add([]byte("w1 1 00000000 3 abc\n"))
	f.Add([]byte("w1 2 deadbeef 100 short\n"))
	f.Add([]byte("v9 1 00000000 0 \n"))
	f.Add(good(
		`{"type":"add_source","v":2,"add_source":{"name":"zagat","schema":{"name":"zagat","attrs":[{"name":"name","kind":"string"},{"name":"stars","kind":"int"}],"keys":[["name"]]},"tuples":[["wok",3],["\u003cb\u003e",null]]}}`,
		`{"type":"insert","v":2,"insert":{"source":"zagat","tuple":["wok \"2\"",-0]}}`,
		`{"type":"source_chunk","v":2,"source_chunk":{"name":"zagat","tuples":[],"final":true}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewFrameScanner(bytes.NewReader(data))
		var reencoded bytes.Buffer
		// The frames that continue the sequence from 1, and their bytes.
		contiguous, prefix, inSeq := uint64(0), 0, true
		for {
			rec, raw, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if _, ok := err.(*CorruptError); !ok {
					t.Fatalf("scanner error is neither EOF nor CorruptError: %v", err)
				}
				break
			}
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
		consumed := data[:sc.Offset()]
		if !bytes.Equal(reencoded.Bytes(), consumed) {
			t.Fatalf("re-encoded records differ from the %d consumed bytes", sc.Offset())
		}

		last, off, dmg, err := scanFrames(bytes.NewReader(data), 0)
		if err != nil || last != contiguous || off != int64(prefix) || (dmg == nil) != (prefix == len(data)) || dmg != nil && dmg.Offset != off {
			t.Fatalf("segment scan = seq %d, offset %d, damage %v, error %v; the first %d of %d bytes hold %d contiguous records",
				last, off, dmg, err, prefix, len(data), contiguous)
		}
	})
}
