// Package match is a fixture stand-in for the repo's matching package:
// Pair is the type the pair-keyed-map rule names, and match is in the
// joined-key rule's scope and the retired sweep pool's.
package match

import "runtime"

type Pair struct{ R, S int32 }

// A matching table: dense partner arrays, not a pair set.
var partnerR, partnerS []int32

var pairs map[Pair]struct{} // want `map\[entityid/internal/match\.Pair\]struct\{\}: a matching table is a partial bijection .*\(PR 31\)`

var postings map[int][]int // want `map\[int\]\[\]int: a matching table`

// Near misses: a pair as a value, postings over int32.
var (
	byOrdinal map[int]Pair
	blocks    map[int][]int32
)

// sep is a separator byte spelled as a Unicode escape, which a regular
// expression over the source (x1[c-f]) does not see.
const sep = "\u001f" // want `literal "\\u001f" holds "\\x1f": a key or an ILFD condition set`

// A comment that names \x1f, or a string that spells it without an
// escape, is not a separator.
const doc = `keys are never joined with \x1f`

// workers sizes a sweep pool by the processors the runtime may use.
func workers() int {
	return runtime.GOMAXPROCS(0) // want `call to runtime\.GOMAXPROCS: the trichotomy sweep is word-wise and sequential: one verdict row`
}

// Near miss: another call into runtime.
var cpus = runtime.NumCPU()
