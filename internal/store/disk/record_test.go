package disk

// The spilled cluster record and the one decoder every read path shares:
// what goes out comes back, and what comes back damaged is an error
// naming the record's offset — never a member set — that moves nothing
// in the tier. The tier's behaviour as a store is held at the seam
// (internal/store/conformance_test.go); this file is about the bytes.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"entityid/internal/store"
)

// maxSize is the largest record the round trips try.
const maxSize = 40

// tierTop bounds the positions records take through the tier. The
// cluster index holds a slot per position up to the largest it has seen,
// as a hub's densely numbered tuples need, so positions near the largest
// a 32-bit int reaches would cost it megabytes a source; 1<<20 still
// spells an index in three varint bytes.
const tierTop = 1 << 20

// record is a sound cluster of k members — one per source, ascending —
// disjoint from every other size's, its indexes spread up to top.
func record(k, top int) []store.Node {
	ms := make([]store.Node, k)
	for i := range ms {
		ms[i] = store.Node{Src: i, Idx: k + i*(top/maxSize)}
	}
	ms[k-1].Idx = top - (k - 2)
	return ms
}

func TestSpillRecordRoundTrip(t *testing.T) {
	var buf []byte
	for k := 2; k <= maxSize; k++ {
		ms := record(k, math.MaxInt32)
		buf = appendRecord(buf[:0], ms)
		got, err := decodeRecord(buf, k)
		if err != nil || !reflect.DeepEqual(got, ms) {
			t.Fatalf("size %d: decoded %v, %v, want %v", k, got, err, ms)
		}
	}
	// The same records through the tier: published, spilled by a budget
	// of one record, and read back by each path.
	be, err := Open(t.TempDir(), store.Caps{HotClusterEntries: maxSize, HotPairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	c := &be.c
	for k := 2; k <= maxSize; k++ {
		c.Publish(record(k, tierTop))
	}
	for k := 2; k <= maxSize; k++ {
		want := record(k, tierTop)
		for name, read := range readPaths(c) {
			if got, err := read(want[k/2]); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("size %d: %s = %v, %v, want %v", k, name, got, err, want)
			}
		}
	}
	if st := c.Stats(); st.Spills < maxSize-2 || st.PageIns == 0 {
		t.Fatalf("the sizes never went through the spill file: %+v", st)
	}
}

// readPaths are the four ways a body comes back, each reduced to "the
// set holding n".
func readPaths(c *clusters) map[string]func(store.Node) ([]store.Node, error) {
	return map[string]func(store.Node) ([]store.Node, error){
		"Read":    c.Read,
		"Peek":    c.Peek,
		"Members": c.Members,
		"Partition": func(n store.Node) ([]store.Node, error) {
			part, err := c.Partition()
			for _, ms := range part {
				for _, m := range ms {
					if m == n {
						return ms, err
					}
				}
			}
			return nil, err
		},
	}
}

// tierState is what a failed read must leave alone: occupancy, spills
// and, for a read of one record, page-ins (Partition pages the sound
// records in on its way to the damaged one). Misses is left out: it
// counts reads that found their record cold, and a read that then
// failed did.
func tierState(c *clusters, path string) [5]int64 {
	st := c.Stats()
	if path == "Partition" {
		st.PageIns = 0
	}
	return [5]int64{int64(st.HotRecords), int64(st.HotEntries), int64(st.ColdRecords), st.Spills, st.PageIns}
}

func TestDamagedSpillRecordFailsClosed(t *testing.T) {
	dir := t.TempDir()
	be, err := Open(dir, store.Caps{HotClusterEntries: 4, HotPairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	c := &be.c
	const rows = 8
	for i := 0; i < rows; i++ {
		c.Publish([]store.Node{{Src: 0, Idx: i}, {Src: 1, Idx: 300 + i}, {Src: 2, Idx: tierTop - i}})
	}
	// The victim is the last record written, so the file can be cut
	// inside it.
	var victim *rec
	for _, r := range c.idx.All {
		if r.off >= 0 && r.off+int64(r.flen) == c.wsize {
			victim = r
		}
	}
	if victim == nil || victim.members != nil {
		t.Fatalf("no cold record ends the spill file (victim %+v)", victim)
	}
	n, off, flen := victim.first, victim.off, victim.flen
	path := c.f.Name()
	good := make([]byte, flen)
	if _, err := c.f.ReadAt(good, off); err != nil {
		t.Fatal(err)
	}
	mustFail := func(damage string) {
		t.Helper()
		for name, read := range readPaths(c) {
			before := tierState(c, name)
			ms, err := read(n)
			if err == nil || ms != nil {
				t.Fatalf("%s: %s = %v, %v, want an error and no set", damage, name, ms, err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("cluster record at %d:", off)) {
				t.Fatalf("%s: %s error does not name offset %d: %v", damage, name, off, err)
			}
			if after := tierState(c, name); after != before {
				t.Fatalf("%s: the failed %s moved the tier: %v, was %v", damage, name, after, before)
			}
		}
		if _, ms, ok := c.Glance(n); !ok || ms != nil {
			t.Fatalf("%s: the record became resident (%v) or left the index", damage, ms)
		}
	}
	for i := 0; i < flen; i++ {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xff
		if _, err := c.f.WriteAt(bad, off); err != nil {
			t.Fatal(err)
		}
		mustFail(fmt.Sprintf("byte %d of %d flipped", i, flen))
	}
	if _, err := c.f.WriteAt(good, off); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut <= flen; cut++ {
		if err := os.Truncate(path, off+int64(flen-cut)); err != nil {
			t.Fatal(err)
		}
		mustFail(fmt.Sprintf("file cut %d bytes short", cut))
	}
	// An index that says the record is one byte longer than it was
	// written, with a byte there to read.
	if _, err := c.f.WriteAt(append(append([]byte(nil), good...), 0), off); err != nil {
		t.Fatal(err)
	}
	victim.flen++
	mustFail("record length one too long")
	victim.flen--
	// Restored, every path serves it again.
	for name, read := range readPaths(c) {
		if ms, err := read(n); err != nil || len(ms) != 3 || ms[0] != n {
			t.Fatalf("restored record: %s = %v, %v", name, ms, err)
		}
	}
}

// sealed puts a valid checksum in front of a body: damage the CRC would
// catch is TestDamagedSpillRecordFailsClosed's; these are the decoder's
// own checks.
func sealed(body []byte) []byte {
	rec := make([]byte, 4, 4+len(body))
	rec = append(rec, body...)
	binary.LittleEndian.PutUint32(rec, crc32.Checksum(body, castagnoli))
	return rec
}

func TestDecodeRefusesMalformedBodies(t *testing.T) {
	good := appendRecord(nil, []store.Node{{Src: 0, Idx: 5}, {Src: 1, Idx: 300}})[4:]
	for name, tc := range map[string]struct {
		body []byte
		want int
	}{
		"trailing byte":         {append(append([]byte(nil), good...), 0), 2},
		"count above the index": {good, 1},
		"count below the index": {good, 3},
		"count past the bytes":  {[]byte{200, 1, 0, 0}, 200},
		"members cut short":     {good[:len(good)-1], 2},
		"no count":              {nil, 0},
		"padded index":          {[]byte{1, 0, 0x85, 0}, 1}, // 5 spelled in two bytes
		"padded count":          {[]byte{0x81, 0, 0, 5}, 1},
		"index past an int":     {append([]byte{1, 0}, bytes.Repeat([]byte{0xff}, 9)...), 1},
		"unterminated varint":   {[]byte{1, 0, 0x80}, 1},
		"eleven-byte varint":    {append([]byte{1, 0}, append(bytes.Repeat([]byte{0x80}, 10), 1)...), 1},
	} {
		if ms, err := decodeRecord(sealed(tc.body), tc.want); err == nil {
			t.Errorf("%s: decoded %v", name, ms)
		}
	}
	if _, err := decodeRecord([]byte{1, 2, 3}, 0); err == nil {
		t.Error("three bytes decoded")
	}
	if ms, err := decodeRecord(sealed(good), 2); err != nil || len(ms) != 2 {
		t.Errorf("the well-formed body: %v, %v", ms, err)
	}
}

// FuzzSpillRecord: decode ∘ encode is the identity on member sets, and
// no input panics the decoder or decodes to a set whose encoding is not
// the input — a record has one spelling.
func FuzzSpillRecord(f *testing.F) {
	f.Add(appendRecord(nil, record(2, math.MaxInt32)))
	f.Add(appendRecord(nil, record(9, math.MaxInt32)))
	f.Add([]byte{2, 0, 5, 1, 0x80, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*maxSize {
			return // no larger record says more, and the engine minimises slowly
		}
		// As members: eight bytes a node.
		var ms []store.Node
		for b := data; len(b) >= 8; b = b[8:] {
			ms = append(ms, store.Node{
				Src: int(binary.LittleEndian.Uint32(b) & math.MaxInt32),
				Idx: int(binary.LittleEndian.Uint32(b[4:]) & math.MaxInt32),
			})
		}
		rec := appendRecord(nil, ms)
		if got, err := decodeRecord(rec, len(ms)); err != nil || len(got) != len(ms) || (len(ms) > 0 && !reflect.DeepEqual(got, ms)) {
			t.Fatalf("decode(encode(%v)) = %v, %v", ms, got, err)
		}
		// As a record, and as a body under a valid checksum, against the
		// count it claims.
		for _, rec := range [][]byte{data, sealed(data)} {
			want := 0
			if len(rec) > 4 {
				v, _ := binary.Uvarint(rec[4:])
				want = int(v & math.MaxInt32)
			}
			got, err := decodeRecord(rec, want)
			if err != nil {
				continue
			}
			if again := appendRecord(nil, got); !bytes.Equal(again, rec) {
				t.Fatalf("% x decodes to %v, which encodes as % x", rec, got, again)
			}
		}
	})
}
