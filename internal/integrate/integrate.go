// Package integrate builds the integrated table T_RS = MT_RS ⋈ R
// full-outer-join S (§4.1–4.2): matched pairs merge into one row;
// unmatched tuples of either relation survive as rows padded with NULL
// on the other side. The paper's prototype prints exactly this table
// (§6.3's print_integ_table).
//
// Within T_RS a real-world entity can still be modeled by up to two
// tuples (a row from R and a row from S that the available knowledge
// could not match). The paper defines the residual "possible match"
// relation on T_RS — two rows possibly match when their extended-key
// values have no conflicting non-NULL entries — implemented here as
// PossibleMatches.
package integrate

import (
	"fmt"

	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// PrefixR and PrefixS prefix the two sides' attribute names in the
// integrated table: the prototype's column names (r_name, s_cui, …).
const (
	PrefixR = "r_"
	PrefixS = "s_"
)

// Row links an integrated tuple back to its sources: RIndex/SIndex are
// positions in the extended relations, or -1 for the padded side.
type Row struct {
	RIndex, SIndex int
}

// Table is the integrated table T_RS plus row provenance.
type Table struct {
	Rel  *relation.Relation
	Rows []Row
	// rArity is the number of R-side columns (provenance for the
	// extended-key coalescing helpers).
	rArity int
	extKey []string
}

// Build constructs T_RS from a match result. Column order is R′'s
// attributes then S′'s, each side prefixed (PrefixR, PrefixS).
func Build(res *match.Result) (*Table, error) {
	rp, sp := res.RPrime, res.SPrime
	var attrs []schema.Attribute
	for _, a := range rp.Schema().Attrs() {
		attrs = append(attrs, schema.Attribute{Name: PrefixR + a.Name, Kind: a.Kind})
	}
	for _, a := range sp.Schema().Attrs() {
		attrs = append(attrs, schema.Attribute{Name: PrefixS + a.Name, Kind: a.Kind})
	}
	sch, err := schema.New("T_RS", attrs)
	if err != nil {
		return nil, err
	}
	out := relation.New(sch)
	tab := &Table{Rel: out, rArity: rp.Schema().Arity(), extKey: res.ExtKey()}

	matchedR := make(map[int]int, res.MT.Len()) // RIndex -> SIndex
	matchedS := make(map[int]bool, res.MT.Len())
	for _, p := range res.MT.Pairs {
		matchedR[p.RIndex] = p.SIndex
		matchedS[p.SIndex] = true
	}
	nullsR := nullTuple(rp.Schema().Arity())
	nullsS := nullTuple(sp.Schema().Arity())

	insert := func(rIdx, sIdx int, rt, st relation.Tuple) error {
		row := make(relation.Tuple, 0, len(rt)+len(st))
		row = append(row, rt...)
		row = append(row, st...)
		if err := out.Insert(row); err != nil {
			return fmt.Errorf("integrate: %w", err)
		}
		tab.Rows = append(tab.Rows, Row{RIndex: rIdx, SIndex: sIdx})
		return nil
	}
	// Matched pairs merge; unmatched R rows pad right; unmatched S rows
	// pad left — the full outer join.
	for i, rt := range rp.Tuples() {
		if j, ok := matchedR[i]; ok {
			if err := insert(i, j, rt, sp.Tuple(j)); err != nil {
				return nil, err
			}
			continue
		}
		if err := insert(i, -1, rt, nullsS); err != nil {
			return nil, err
		}
	}
	for j, st := range sp.Tuples() {
		if matchedS[j] {
			continue
		}
		if err := insert(-1, j, nullsR, st); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

func nullTuple(n int) relation.Tuple {
	t := make(relation.Tuple, n)
	for i := range t {
		t[i] = value.Null
	}
	return t
}

// Len returns the number of integrated rows.
func (t *Table) Len() int { return t.Rel.Len() }

// Merged reports whether row i combines a tuple from each source.
func (t *Table) Merged(i int) bool {
	return t.Rows[i].RIndex >= 0 && t.Rows[i].SIndex >= 0
}

// CoalescedKey returns row i's extended-key values with R-side values
// taking precedence and the S side filling NULLs: the integrated
// entity's identity under the extended key. A conflict (both sides
// non-NULL and different) returns an error — it would mean the matching
// table merged tuples the extended key distinguishes.
func (t *Table) CoalescedKey(i int) ([]value.Value, error) {
	row := t.Rel.Tuple(i)
	out := make([]value.Value, len(t.extKey))
	for n, a := range t.extKey {
		ri := t.Rel.Schema().Index(PrefixR + a)
		si := t.Rel.Schema().Index(PrefixS + a)
		var rv, sv value.Value
		if ri >= 0 {
			rv = row[ri]
		}
		if si >= 0 {
			sv = row[si]
		}
		switch {
		case rv.IsNull():
			out[n] = sv
		case sv.IsNull():
			out[n] = rv
		case value.Equal(rv, sv):
			out[n] = rv
		default:
			return nil, fmt.Errorf("integrate: row %d: conflicting extended-key values %s vs %s for %q",
				i, rv, sv, a)
		}
	}
	return out, nil
}

// PossibleMatches returns the pairs of integrated rows that could still
// model the same real-world entity: their coalesced extended keys have
// no conflicting non-NULL values, and they originate from opposite
// sides (a merged row is already resolved). This is the §4.1 residual-
// match relation on T_RS.
func (t *Table) PossibleMatches() ([][2]int, error) {
	keys := make([][]value.Value, t.Len())
	for i := range keys {
		k, err := t.CoalescedKey(i)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	var out [][2]int
	for i := 0; i < t.Len(); i++ {
		for j := i + 1; j < t.Len(); j++ {
			// Two unresolved rows from opposite sides.
			ri, rj := t.Rows[i], t.Rows[j]
			if t.Merged(i) || t.Merged(j) {
				continue
			}
			fromR := ri.RIndex >= 0
			otherFromR := rj.RIndex >= 0
			if fromR == otherFromR {
				continue
			}
			compatible := true
			for n := range t.extKey {
				a, b := keys[i][n], keys[j][n]
				if !a.IsNull() && !b.IsNull() && !value.Equal(a, b) {
					compatible = false
					break
				}
			}
			if compatible {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out, nil
}

// Render prints the integrated table in the prototype's format, sorted
// by the whole row for determinism.
func (t *Table) Render(title string) string {
	clone := t.Rel.Clone()
	if err := clone.Sort(); err != nil {
		return err.Error()
	}
	return relation.Format(title, clone.Schema().AttrNames(), clone.Tuples())
}
