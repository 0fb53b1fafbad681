// Package resolve implements attribute-value conflict resolution, the
// second instance-level integration problem the paper identifies (§2):
// once entity identification has merged tuples, "semantically
// equivalent attributes [may] have different values" — from scaling
// differences, inconsistencies or missing data — and the integrated
// relation needs a single value per attribute.
//
// The paper scopes this out ("attribute value conflict resolution can
// be performed only after the entity-identification problem has been
// resolved") but the integrated table's paired r_*/s_* columns are
// exactly its input, so the package closes the loop: Merge collapses an
// integrate.Table into a one-column-per-attribute relation under
// per-attribute strategies.
package resolve

import (
	"fmt"

	"entityid/internal/integrate"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// Strategy decides the merged value of one attribute given the two
// sides' values (either may be NULL).
type Strategy int

// The built-in strategies.
const (
	// Coalesce takes whichever side is non-NULL; if both are non-NULL
	// they must agree (matching-level equality) or Merge reports a
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

// Spec describes one output attribute of the merged relation.
type Spec struct {
	// Name is the merged attribute name.
	Name string
	// R and S are the column names inside the integrated table
	// (including their r_/s_ prefixes); either may be empty for a
	// one-sided attribute.
	R, S string
	// Strategy resolves two-sided values. Zero value is Coalesce.
	Strategy Strategy
}

// Merge collapses the integrated table into a relation with one column
// per Spec, resolving paired values by each Spec's strategy. The
// returned conflicts list every disagreement (empty under Strict —
// Strict fails instead).
func Merge(tab *integrate.Table, name string, specs []Spec) (*relation.Relation, []Conflict, error) {
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("resolve: no output attributes")
	}
	sch := tab.Rel.Schema()
	attrs := make([]schema.Attribute, 0, len(specs))
	type colPair struct{ r, s int }
	cols := make([]colPair, 0, len(specs))
	for _, sp := range specs {
		if sp.Name == "" {
			return nil, nil, fmt.Errorf("resolve: empty output attribute name")
		}
		ri, si := -1, -1
		var kind value.Kind = value.KindString
		if sp.R != "" {
			ri = sch.Index(sp.R)
			if ri < 0 {
				return nil, nil, fmt.Errorf("resolve: %q: integrated table has no column %q", sp.Name, sp.R)
			}
			kind = sch.Attr(ri).Kind
		}
		if sp.S != "" {
			si = sch.Index(sp.S)
			if si < 0 {
				return nil, nil, fmt.Errorf("resolve: %q: integrated table has no column %q", sp.Name, sp.S)
			}
			if ri >= 0 && sch.Attr(si).Kind != kind {
				return nil, nil, fmt.Errorf("resolve: %q: kind mismatch between %q and %q", sp.Name, sp.R, sp.S)
			}
			if ri < 0 {
				kind = sch.Attr(si).Kind
			}
		}
		if ri < 0 && si < 0 {
			return nil, nil, fmt.Errorf("resolve: %q: neither side given", sp.Name)
		}
		attrs = append(attrs, schema.Attribute{Name: sp.Name, Kind: kind})
		cols = append(cols, colPair{r: ri, s: si})
	}
	outSch, err := schema.New(name, attrs)
	if err != nil {
		return nil, nil, err
	}
	// Merged views are bags: a projection of the integrated table may
	// legitimately repeat rows.
	out := relation.NewBag(outSch)
	var conflicts []Conflict
	for rowIdx, row := range tab.Rel.Tuples() {
		merged := make(relation.Tuple, len(specs))
		for n, sp := range specs {
			var rv, sv value.Value
			if cols[n].r >= 0 {
				rv = row[cols[n].r]
			}
			if cols[n].s >= 0 {
				sv = row[cols[n].s]
			}
			v, conflict := resolveOne(sp.Strategy, rv, sv)
			if conflict {
				c := Conflict{Row: rowIdx, Attr: sp.Name, RV: rv, SV: sv, Resolved: v}
				if sp.Strategy == Strict {
					return nil, nil, c
				}
				conflicts = append(conflicts, c)
			}
			merged[n] = v
		}
		if err := out.Insert(merged); err != nil {
			return nil, nil, fmt.Errorf("resolve: %w", err)
		}
	}
	return out, conflicts, nil
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
// Cross-source views (the hub package) use it to merge one integrated
// attribute across N matched tuples.
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

// AutoSpecs builds a Spec list from an integrated table's column
// naming convention: columns r_X and s_X (integrate.PrefixR, PrefixS)
// pair into X (Coalesce); one-sided columns keep their suffix as the
// merged name. This covers the common case where both sides used
// integrated attribute names.
func AutoSpecs(tab *integrate.Table) []Spec {
	const rPrefix, sPrefix = integrate.PrefixR, integrate.PrefixS
	sch := tab.Rel.Schema()
	var specs []Spec
	seen := map[string]bool{}
	for _, a := range sch.AttrNames() {
		var base string
		switch {
		case len(a) > len(rPrefix) && a[:len(rPrefix)] == rPrefix:
			base = a[len(rPrefix):]
		case len(a) > len(sPrefix) && a[:len(sPrefix)] == sPrefix:
			base = a[len(sPrefix):]
		default:
			continue
		}
		if seen[base] {
			continue
		}
		seen[base] = true
		sp := Spec{Name: base}
		if sch.Has(rPrefix + base) {
			sp.R = rPrefix + base
		}
		if sch.Has(sPrefix + base) {
			sp.S = sPrefix + base
		}
		specs = append(specs, sp)
	}
	return specs
}
