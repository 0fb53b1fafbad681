// The reference (pre-engine) implementation of the §3.2/§4.2 semantics:
// nested-loop extended-key join and identity rules, linear-scan table
// membership, interpreted rule predicates, sequential |R|×|S| sweeps. It is kept as the
// executable specification of what the indexed/blocked/parallel engine
// (engine.go) must compute — differential tests build each workload both
// ways and require identical results — and as the baseline the scale
// benchmarks measure speedups against. Select it with Config.Naive.
package match

import (
	"fmt"

	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/value"
)

// referencePairs is the matching step as nested loops: a pair joins the
// table when its tuples agree on every extended-key attribute
// (value.Equal, so a NULL never joins) or some identity rule holds for
// it, in either orientation, with interpreted predicate evaluation.
// Row-major, which is the table's sorted order.
func referencePairs(rp, sp *relation.Relation, extKey []string, identity []rules.IdentityRule) []Pair {
	// Every extended-key attribute is in the attribute map (validate), so
	// both extended schemas have it and neither can fail.
	rPos, _ := offsets(rp.Schema(), extKey)
	sPos, _ := offsets(sp.Schema(), extKey)
	var out []Pair
	for i, rt := range rp.Tuples() {
		for j, st := range sp.Tuples() {
			joins := true
			for n := range extKey {
				if !value.Equal(rt[rPos[n]], st[sPos[n]]) {
					joins = false
					break
				}
			}
			for n := 0; !joins && n < len(identity); n++ {
				joins = identity[n].Holds(rp, rt, sp, st) || identity[n].Holds(sp, st, rp, rt)
			}
			if joins {
				out = append(out, Pair{RIndex: i, SIndex: j})
			}
		}
	}
	return out
}

// referenceContains is the linear-scan table membership test: it reads
// the table's log, never its partner arrays.
func (res *Result) referenceContains(i, j int) bool {
	for p := range res.MT.All() {
		if p == (Pair{RIndex: i, SIndex: j}) {
			return true
		}
	}
	return false
}

// referenceRows are R′ and S′ read whole, once, for a reference pass:
// the extended relations are views (relation.NewImage), and the nested
// loops would otherwise build a row per cell.
type referenceRows struct{ r, s []relation.Tuple }

func (res *Result) referenceRows() referenceRows {
	return referenceRows{res.RPrime.Tuples(), res.SPrime.Tuples()}
}

// distinctHolds evaluates a distinctness rule over the pair in both
// orientations: the rule's e1 and e2 range over all entities of E, so a
// pair (r, s) instantiates either (e1=r, e2=s) or (e1=s, e2=r). Table 4
// of the paper needs the second orientation (the Mughalai tuple lives in
// S).
func (res *Result) distinctHolds(d rules.DistinctnessRule, rt, st relation.Tuple) bool {
	return d.Holds(res.RPrime, rt, res.SPrime, st) ||
		d.Holds(res.SPrime, st, res.RPrime, rt)
}

// referenceClassify is the interpreted, linear-scan classifier.
func (res *Result) referenceClassify(i, j int, rt, st relation.Tuple) Verdict {
	if res.referenceContains(i, j) {
		return Matching
	}
	for _, d := range res.distinct {
		if res.distinctHolds(d, rt, st) {
			return NotMatching
		}
	}
	return Undetermined
}

// referenceCounts is the sequential Figure 3 tally.
func (res *Result) referenceCounts() (matching, notMatching, undetermined int) {
	rows := res.referenceRows()
	for i := range rows.r {
		for j := range rows.s {
			switch res.referenceClassify(i, j, rows.r[i], rows.s[j]) {
			case Matching:
				matching++
			case NotMatching:
				notMatching++
			default:
				undetermined++
			}
		}
	}
	return
}

// referenceSweep is the sequential row-major enumeration of pairs with
// the given verdict.
func (res *Result) referenceSweep(want Verdict, limit int) []Pair {
	rows := res.referenceRows()
	var out []Pair
	for i := range rows.r {
		for j := range rows.s {
			if res.referenceClassify(i, j, rows.r[i], rows.s[j]) == want {
				out = append(out, Pair{RIndex: i, SIndex: j})
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}

// referenceVerifyConsistency is the interpreted consistency half of
// Verify.
func (res *Result) referenceVerifyConsistency() error {
	rows := res.referenceRows()
	for p := range res.MT.All() {
		for _, d := range res.distinct {
			if res.distinctHolds(d, rows.r[p.RIndex], rows.s[p.SIndex]) {
				return &Violation{R: []int{p.RIndex}, S: []int{p.SIndex},
					err: fmt.Errorf("match: %w: pair (%d,%d) matched but distinctness rule %q fires",
						ErrConsistency, p.RIndex, p.SIndex, d.Name)}
			}
		}
	}
	return nil
}
