package relation

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"entityid/internal/value"
)

// PosIndex files the positions of a growing sequence of rows under a hash
// of each row's key projection: hash → the last position filed under it,
// and per position a back-link to the one filed under the same hash
// before it. It holds no key, so it cannot tell a collision from a hit —
// the caller, who knows the columns and the equality its key is held to,
// verifies every position a chain hands out; a hit is then a hit by
// comparison of values, not by the absence of a separator byte in them.
// It is the one index: a relation's candidate keys, the matching step's
// extended-key join and its identity-rule blocks are each one PosIndex.
//
// Every row takes the next position, through Add — filed, or not when
// its projection joins nothing. A chain runs from the newest position
// down:
//
//	for pos := ix.Last(h); pos >= 0; pos = ix.Prev(pos) { … verify … }
type PosIndex struct {
	mix  func(h uint64, v value.Value) uint64
	last map[uint64]int32
	prev []int32
}

// maxRows bounds a position: back-links are int32.
const maxRows = math.MaxInt32

// hashSeed is the process's: every index hashes alike, so the hash of a
// tuple of one side looks the other side's index up.
var hashSeed = maphash.MakeSeed()

// NewPosIndex returns an empty index.
func NewPosIndex() *PosIndex { return newPosIndex(seededMix) }

// seededMix folds v's seeded hash into h, order-sensitively.
func seededMix(h uint64, v value.Value) uint64 {
	return (bits.RotateLeft64(h, 5) ^ v.Hash(hashSeed)) * 0x9E3779B97F4A7C15
}

// newPosIndex is NewPosIndex over another hash, folded in value by value.
func newPosIndex(mix func(h uint64, v value.Value) uint64) *PosIndex {
	return &PosIndex{mix: mix, last: map[uint64]int32{}}
}

// Hash hashes t's projection onto cols — t itself under nil cols — such
// that projections equal column by column in canonical form
// (value.Value.Canon) hash alike. Whether a projection joins anything at
// all (a NULL, a NaN) is the caller's to decide before asking.
//
//entitylint:hotpath nolock,noobs,noio
func (ix *PosIndex) Hash(t Tuple, cols []int) uint64 {
	var h uint64
	if cols == nil {
		for _, v := range t {
			h = ix.mix(h, v)
		}
		return h
	}
	for _, c := range cols {
		h = ix.mix(h, t[c])
	}
	return h
}

// Reserve makes room for n more positions, so an index about to file a
// known number of rows does not grow on the way; an index already
// holding filed positions keeps its map as it is.
func (ix *PosIndex) Reserve(n int) {
	if len(ix.last) == 0 {
		ix.last = make(map[uint64]int32, n)
	}
	ix.prev = slices.Grow(ix.prev, n)
}

// Add gives the next position to a row whose projection hashed to h:
// filed under h, or — a projection that joins nothing — left unfiled. A
// relation refuses the tuple whose position would not fit a back-link
// (Admit) and an index follows a relation, so running out here is a bug,
// not an input.
func (ix *PosIndex) Add(h uint64, filed bool) {
	if len(ix.prev) >= maxRows {
		panic(fmt.Sprintf("relation: position index: position %d does not fit a back-link", len(ix.prev)))
	}
	prev := int32(-1)
	if filed {
		pos := int32(len(ix.prev))
		if last, ok := ix.last[h]; ok {
			prev = last
		}
		ix.last[h] = pos
	}
	ix.prev = append(ix.prev, prev)
}

// Last returns the newest position filed under h, -1 if there is none.
//
//entitylint:hotpath nolock,noobs,noio
func (ix *PosIndex) Last(h uint64) int {
	if pos, ok := ix.last[h]; ok {
		return int(pos)
	}
	return -1
}

// Prev returns the position filed under pos's hash before pos, -1 if pos
// was the first.
//
//entitylint:hotpath nolock,noobs,noio
func (ix *PosIndex) Prev(pos int) int { return int(ix.prev[pos]) }
