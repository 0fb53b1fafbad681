// Package resolve implements attribute-value conflict resolution, the
// second instance-level integration problem the paper identifies (§2):
// once entity identification has merged tuples, "semantically
// equivalent attributes [may] have different values" — from scaling
// differences, inconsistencies or missing data — and the integrated
// relation needs a single value per attribute.
//
// The paper scopes this out ("attribute value conflict resolution can
// be performed only after the entity-identification problem has been
// resolved"); the package supplies the one rule both integrated views
// merge by. Reduce folds an attribute's values — the two sides of a
// matched pair in the facade's merged integrated table, a cluster's
// members in the hub — into one under a Strategy, and reports whether
// two of them disagreed.
package resolve

import (
	"fmt"

	"entityid/internal/value"
)

// Strategy decides the merged value of one attribute given the two
// sides' values (either may be NULL).
type Strategy int

// The built-in strategies.
const (
	// Coalesce takes whichever side is non-NULL; if both are non-NULL
	// they must agree (matching-level equality) or the merge reports a
	// Conflict and keeps the R side. The default.
	Coalesce Strategy = iota
	// PreferR takes R's value unless it is NULL.
	PreferR
	// PreferS takes S's value unless it is NULL.
	PreferS
	// Strict is Coalesce that fails the merge on any disagreement
	// instead of recording and continuing.
	Strict
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Coalesce:
		return "coalesce"
	case PreferR:
		return "prefer-r"
	case PreferS:
		return "prefer-s"
	case Strict:
		return "strict"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Conflict records a disagreement between the two sides of a merged
// attribute.
type Conflict struct {
	Row      int
	Attr     string
	RV, SV   value.Value
	Resolved value.Value
}

// Error satisfies the error interface.
func (c Conflict) Error() string {
	return fmt.Sprintf("resolve: row %d attribute %q: %s vs %s (kept %s)",
		c.Row, c.Attr, c.RV, c.SV, c.Resolved)
}

// resolveOne merges one value pair; conflict reports a disagreement
// between two non-NULL values.
func resolveOne(st Strategy, rv, sv value.Value) (value.Value, bool) {
	switch st {
	case PreferR:
		if !rv.IsNull() {
			return rv, false
		}
		return sv, false
	case PreferS:
		if !sv.IsNull() {
			return sv, false
		}
		return rv, false
	default: // Coalesce, Strict
		switch {
		case rv.IsNull():
			return sv, false
		case sv.IsNull():
			return rv, false
		case value.Equal(rv, sv):
			return rv, false
		default:
			return rv, true
		}
	}
}

// Reduce folds any number of attribute values into one under a
// strategy: the n-ary generalisation of the pairwise merge, defined as
// the left fold of the two-sided resolution (earlier values take the R
// role, later values the S role). Coalesce keeps the first non-NULL
// value, PreferR the first non-NULL, PreferS the last non-NULL;
// conflicted reports whether any two non-NULL values disagreed along
// the way. Strict fails on the first disagreement instead.
// Every merge in the tree goes through it: the facade's merged
// integrated table folds a matched pair's two sides, the hub one
// integrated attribute across N matched tuples.
func Reduce(st Strategy, vals ...value.Value) (merged value.Value, conflicted bool, err error) {
	merged = value.Null
	for _, v := range vals {
		next, conflict := resolveOne(st, merged, v)
		if conflict {
			if st == Strict {
				return value.Null, true, fmt.Errorf("resolve: strict merge: %s vs %s", merged, v)
			}
			conflicted = true
		}
		merged = next
	}
	return merged, conflicted, nil
}
