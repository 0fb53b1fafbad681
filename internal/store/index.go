package store

import (
	"slices"
	"sync/atomic"
)

// chunkBits sizes the Index's chunks: 1<<chunkBits record slots, one per
// tuple position, 8 KiB of pointers each.
const chunkBits = 10

const chunkSlots = 1 << chunkBits

// chunk is one run of consecutive tuple positions of one source.
type chunk[R any] [chunkSlots]atomic.Pointer[R]

// Index is the node → record index both backends keep. Tuples are
// numbered, so a node's record sits at a position, not under a hash: per
// source a list of fixed-size chunks of record-pointer slots, addressed
// by the tuple index. A slot is nil until a record is stored there; a
// singleton's slot stays nil, and a chunk no record has reached is not
// allocated.
//
// Get is lock-free and safe concurrently with Set: it loads the
// directory (the per-source chunk lists) and then one slot, both
// atomically. Set is writer-side — its callers serialise it — and grows
// the directory copy-on-write: a new directory shares every existing
// chunk with the old one and is published whole, so a reader holding an
// old directory still sees every slot store made into a chunk it has. A
// source's chunk list grows geometrically, in place: a new chunk is
// written past the length every published directory gives the list, and
// only a new directory's header covers it, so no reader sees the write,
// and the list is copied only when its capacity runs out.
// A reader that has seen one Set sees every Set made before it, the
// directory growth included: the order in which a writer stores the
// slots of one record is the order in which readers can find them.
//
// The zero Index is empty and ready to use.
type Index[R any] struct {
	dir atomic.Pointer[[][]*chunk[R]]
}

// Get returns n's record, or nil when it has none.
//
//entitylint:hotpath
func (x *Index[R]) Get(n Node) *R {
	d := x.dir.Load()
	if d == nil || uint(n.Src) >= uint(len(*d)) {
		return nil
	}
	cs := (*d)[n.Src]
	if ci := uint(n.Idx) >> chunkBits; ci < uint(len(cs)) && cs[ci] != nil {
		return cs[ci][n.Idx&(chunkSlots-1)].Load()
	}
	return nil
}

// Set stores r as n's record, first giving the directory the chunk that
// holds n when it has none. Writer-side: callers serialise Set.
func (x *Index[R]) Set(n Node, r *R) {
	var srcs [][]*chunk[R]
	if d := x.dir.Load(); d != nil {
		srcs = *d
	}
	ci := n.Idx >> chunkBits
	if n.Src >= len(srcs) || ci >= len(srcs[n.Src]) || srcs[n.Src][ci] == nil {
		// A new directory, and the chunk written where no reader of the
		// old one looks: past the list's length, or into a copy of the
		// list when the chunk fills a hole below it.
		grown := make([][]*chunk[R], max(len(srcs), n.Src+1))
		copy(grown, srcs)
		cs := grown[n.Src]
		if ci < len(cs) {
			cs = slices.Clone(cs)
		} else {
			cs = slices.Grow(cs, ci+1-len(cs))[:ci+1]
		}
		cs[ci] = new(chunk[R])
		grown[n.Src] = cs
		x.dir.Store(&grown)
		srcs = grown
	}
	srcs[n.Src][ci][n.Idx&(chunkSlots-1)].Store(r)
}

// All yields every node that has a record, with the record, in
// canonical (source, index) order — so a caller that keeps each record
// at its first member has the records sorted by first member without
// sorting them. Writer-side: a concurrent Set may or may not be seen.
func (x *Index[R]) All(yield func(Node, *R) bool) {
	d := x.dir.Load()
	if d == nil {
		return
	}
	for s, cs := range *d {
		for ci, c := range cs {
			if c == nil {
				continue
			}
			for i := range c {
				if r := c[i].Load(); r != nil && !yield(Node{Src: s, Idx: ci<<chunkBits | i}, r) {
					return
				}
			}
		}
	}
}
