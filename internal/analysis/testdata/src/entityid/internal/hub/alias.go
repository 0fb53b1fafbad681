// A pair-keyed map behind an alias, which a regular expression over
// map[...] misses.
package hub

import "entityid/internal/match"

type P = match.Pair

var accepted map[P]struct{} // want `map\[entityid/internal/match\.Pair\]struct\{\}: a matching table`

// Silent: a slice of pairs, a map keyed by int.
var (
	log   []match.Pair
	count map[int]int
)

// Merge is not resolve's: the rule holds in internal/resolve only.
func Merge() {}

// Silent: an array literal whose length the compiler counts.
var sides = [...]int{0, 1}
