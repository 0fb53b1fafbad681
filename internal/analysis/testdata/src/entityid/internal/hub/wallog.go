package hub

import "entityid/internal/relation"

// A registration's seeds are a run record: no array of tuples of the
// hub's own, and no second spelling of a run.
func (h *Hub) logSeeds(ts []relation.Tuple) []byte {
	var blocks relation.TupleBlocks
	_, _ = blocks.ParseTuplesJSON(nil, nil)   // want `call to \(\*entityid/internal/relation\.TupleBlocks\)\.ParseTuplesJSON: an array of tuples is written .*\(PR 48\)`
	return relation.AppendTuplesJSON(nil, ts) // want `call to entityid/internal/relation\.AppendTuplesJSON: an array of tuples`
}

func appendChunk(b []byte) []byte { return b } // want `func appendChunk: a run of one source's tuples has one record.*\(PR 48\)`
