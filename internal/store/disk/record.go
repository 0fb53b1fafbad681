package disk

// The spilled cluster record (format: package comment) and its one
// decoder.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"entityid/internal/store"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord appends the spill record of ms (format: package comment).
func appendRecord(b []byte, ms []store.Node) []byte {
	at := len(b)
	b = append(b, 0, 0, 0, 0)
	b = binary.AppendUvarint(b, uint64(len(ms)))
	for _, m := range ms {
		b = binary.AppendUvarint(b, uint64(m.Src))
		b = binary.AppendUvarint(b, uint64(m.Idx))
	}
	binary.LittleEndian.PutUint32(b[at:], crc32.Checksum(b[at+4:], castagnoli))
	return b
}

var errVarint = errors.New("malformed varint")

// uvarint reads one minimally encoded uvarint that fits an int. A
// longer spelling of the same value is refused, so a record has exactly
// one encoding.
func uvarint(b []byte) (int, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || v > math.MaxInt || (n > 1 && b[n-1] == 0) {
		return 0, nil, errVarint
	}
	return int(v), b[n:], nil
}

// decodeRecord is appendRecord's inverse over exactly the bytes of one
// record, want being the member count the index holds for it: it appends
// the members to dst and returns the extended slice.
func decodeRecord(dst []store.Node, b []byte, want int) ([]store.Node, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%d bytes, too short for a checksum", len(b))
	}
	if got, sum := crc32.Checksum(b[4:], castagnoli), binary.LittleEndian.Uint32(b); got != sum {
		return nil, fmt.Errorf("crc mismatch: computed %08x, stored %08x", got, sum)
	}
	count, b, err := uvarint(b[4:])
	if err != nil {
		return nil, err
	}
	if count != want {
		return nil, fmt.Errorf("%d members on disk, index says %d", count, want)
	}
	if count > len(b)/2 { // two bytes a member at least: no allocation a short record cannot back
		return nil, fmt.Errorf("%d members in %d bytes", count, len(b))
	}
	dst = slices.Grow(dst, count)
	ms := dst[len(dst) : len(dst)+count]
	for i := range ms {
		if ms[i].Src, b, err = uvarint(b); err != nil {
			return nil, err
		}
		if ms[i].Idx, b, err = uvarint(b); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(b))
	}
	return dst[:len(dst)+count], nil
}
