// Package baselines implements three of the pre-existing
// entity-identification approaches the paper surveys in §2.2 — the ones
// the experiments and examples print, so that the failure modes the paper
// argues qualitatively are measured:
//
//   - Key equivalence (Multibase): match on a common candidate key.
//   - Probabilistic key equivalence (Pu): subfield matching over key
//     values; a match needs only most subfields to agree.
//   - Probabilistic attribute equivalence (Chatterjee & Segev): a
//     comparison value over all common attributes.
//
// Each returns match.Table pairs over tuple positions, like the paper's
// technique, so metrics can score them uniformly. §2.2's user-specified
// equivalence is System.AssertMatch on the real engine.
package baselines

import (
	"fmt"
	"sort"
	"strings"

	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/value"
)

// AttrPair names one attribute in each relation that the technique
// treats as semantically equivalent.
type AttrPair struct {
	R, S string
}

func validatePairs(r, s *relation.Relation, pairs []AttrPair) error {
	if len(pairs) == 0 {
		return fmt.Errorf("baselines: no attribute pairs")
	}
	for _, p := range pairs {
		if !r.Schema().Has(p.R) {
			return fmt.Errorf("baselines: %s has no attribute %q", r.Schema().Name(), p.R)
		}
		if !s.Schema().Has(p.S) {
			return fmt.Errorf("baselines: %s has no attribute %q", s.Schema().Name(), p.S)
		}
	}
	return nil
}

func mkTable(r, s *relation.Relation, pairs []match.Pair) *match.Table {
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].RIndex != pairs[b].RIndex {
			return pairs[a].RIndex < pairs[b].RIndex
		}
		return pairs[a].SIndex < pairs[b].SIndex
	})
	return match.NewTable(r.Schema().PrimaryKey(), s.Schema().PrimaryKey(), pairs...)
}

// KeyEquivalence matches tuples that agree (non-NULL) on every listed
// key attribute pair — §2.2's approach 1. It reports an error if the
// listed attributes are not a candidate key of both relations, the
// applicability condition the paper highlights ("limited because the
// relations may have no common key").
type KeyEquivalence struct {
	// Key lists the common candidate key, one attribute pair per key
	// attribute.
	Key []AttrPair
	// AllowNonKey skips the candidate-key applicability check, letting
	// experiments run the technique outside its sound envelope (e.g.
	// matching on the shared non-key attribute "name" in Example 1).
	AllowNonKey bool
}

func (k KeyEquivalence) Match(r, s *relation.Relation) (*match.Table, error) {
	if err := validatePairs(r, s, k.Key); err != nil {
		return nil, err
	}
	if !k.AllowNonKey {
		var rAttrs, sAttrs []string
		for _, p := range k.Key {
			rAttrs = append(rAttrs, p.R)
			sAttrs = append(sAttrs, p.S)
		}
		if !r.Schema().IsKey(rAttrs) {
			return nil, fmt.Errorf("baselines: key equivalence inapplicable: %v is not a candidate key of %s",
				rAttrs, r.Schema().Name())
		}
		if !s.Schema().IsKey(sAttrs) {
			return nil, fmt.Errorf("baselines: key equivalence inapplicable: %v is not a candidate key of %s",
				sAttrs, s.Schema().Name())
		}
	}
	index := map[string][]int{}
	for j, t := range s.Tuples() {
		if key, ok := projKey(s, t, k.Key, false); ok {
			index[key] = append(index[key], j)
		}
	}
	var pairs []match.Pair
	for i, t := range r.Tuples() {
		key, ok := projKey(r, t, k.Key, true)
		if !ok {
			continue
		}
		for _, j := range index[key] {
			pairs = append(pairs, match.Pair{RIndex: i, SIndex: j})
		}
	}
	return mkTable(r, s, pairs), nil
}

func projKey(rel *relation.Relation, t relation.Tuple, pairs []AttrPair, left bool) (string, bool) {
	var b strings.Builder
	for n, p := range pairs {
		a := p.S
		if left {
			a = p.R
		}
		v := t[rel.Schema().Index(a)]
		if v.IsNull() {
			return "", false
		}
		if n > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.Key())
	}
	return b.String(), true
}

// ProbabilisticKey implements §2.2's approach 3 (Pu): key values are
// split into subfields and two keys match when the fraction of agreeing
// subfields reaches Threshold. Ambiguity (several S tuples tie at the
// best score) keeps only the first, mirroring the "may admit erroneous
// matching" caveat.
type ProbabilisticKey struct {
	Key []AttrPair
	// Threshold is the minimum fraction of matching subfields (0–1];
	// zero means 0.75, a typical name-matching setting.
	Threshold float64
}

func (p ProbabilisticKey) Match(r, s *relation.Relation) (*match.Table, error) {
	if err := validatePairs(r, s, p.Key); err != nil {
		return nil, err
	}
	th := p.Threshold
	if th == 0 {
		th = 0.75
	}
	if th < 0 || th > 1 {
		return nil, fmt.Errorf("baselines: threshold %g out of (0,1]", th)
	}
	var pairs []match.Pair
	for i, rt := range r.Tuples() {
		best, bestScore := -1, 0.0
		for j, st := range s.Tuples() {
			score := p.score(r, rt, s, st)
			if score > bestScore {
				best, bestScore = j, score
			}
		}
		if best >= 0 && bestScore >= th {
			pairs = append(pairs, match.Pair{RIndex: i, SIndex: best})
		}
	}
	return mkTable(r, s, pairs), nil
}

func (p ProbabilisticKey) score(r *relation.Relation, rt relation.Tuple, s *relation.Relation, st relation.Tuple) float64 {
	var total, matched int
	for _, pr := range p.Key {
		rv := rt[r.Schema().Index(pr.R)]
		sv := st[s.Schema().Index(pr.S)]
		rf := Subfields(rv)
		sf := Subfields(sv)
		if len(rf) == 0 && len(sf) == 0 {
			continue
		}
		total += maxInt(len(rf), len(sf))
		matched += overlap(rf, sf)
	}
	if total == 0 {
		return 0
	}
	return float64(matched) / float64(total)
}

// Subfields splits a value into normalized subfields for probabilistic
// key matching: lower-cased, split on spaces, dots, commas, hyphens.
// NULL has no subfields.
func Subfields(v value.Value) []string {
	if v.IsNull() {
		return nil
	}
	text := strings.ToLower(v.String())
	fields := strings.FieldsFunc(text, func(r rune) bool {
		switch r {
		case ' ', '.', ',', '-', '_', '/':
			return true
		}
		return false
	})
	return fields
}

func overlap(a, b []string) int {
	set := map[string]int{}
	for _, x := range a {
		set[x]++
	}
	n := 0
	for _, x := range b {
		if set[x] > 0 {
			set[x]--
			n++
		}
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ProbabilisticAttr implements §2.2's approach 4 (Chatterjee & Segev):
// every common attribute contributes to a comparison value — the
// weighted fraction of agreeing attributes among those non-NULL on both
// sides — and pairs at or above Threshold match greedily (best score
// first, one match per tuple). Figure 2's scenario shows why this can
// be unsound: identical attribute values do not imply identical
// entities.
type ProbabilisticAttr struct {
	Common []AttrPair
	// Weights optionally weighs each common attribute (default 1).
	Weights []float64
	// Threshold is the minimum comparison value (0–1]; zero means 1.0,
	// i.e. all comparable attributes must agree.
	Threshold float64
}

func (p ProbabilisticAttr) Match(r, s *relation.Relation) (*match.Table, error) {
	if err := validatePairs(r, s, p.Common); err != nil {
		return nil, err
	}
	if p.Weights != nil && len(p.Weights) != len(p.Common) {
		return nil, fmt.Errorf("baselines: %d weights for %d attributes", len(p.Weights), len(p.Common))
	}
	th := p.Threshold
	if th == 0 {
		th = 1.0
	}
	if th < 0 || th > 1 {
		return nil, fmt.Errorf("baselines: threshold %g out of (0,1]", th)
	}
	type cand struct {
		i, j  int
		score float64
	}
	var cands []cand
	for i, rt := range r.Tuples() {
		for j, st := range s.Tuples() {
			if score, ok := p.compare(r, rt, s, st); ok && score >= th {
				cands = append(cands, cand{i, j, score})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		if cands[a].i != cands[b].i {
			return cands[a].i < cands[b].i
		}
		return cands[a].j < cands[b].j
	})
	usedR := map[int]bool{}
	usedS := map[int]bool{}
	var pairs []match.Pair
	for _, c := range cands {
		if usedR[c.i] || usedS[c.j] {
			continue
		}
		usedR[c.i], usedS[c.j] = true, true
		pairs = append(pairs, match.Pair{RIndex: c.i, SIndex: c.j})
	}
	return mkTable(r, s, pairs), nil
}

// compare returns the comparison value for a pair; ok is false when no
// attribute is comparable (both sides NULL everywhere).
func (p ProbabilisticAttr) compare(r *relation.Relation, rt relation.Tuple, s *relation.Relation, st relation.Tuple) (float64, bool) {
	var total, agree float64
	for n, pr := range p.Common {
		w := 1.0
		if p.Weights != nil {
			w = p.Weights[n]
		}
		rv := rt[r.Schema().Index(pr.R)]
		sv := st[s.Schema().Index(pr.S)]
		if rv.IsNull() || sv.IsNull() {
			continue
		}
		total += w
		if value.Equal(rv, sv) {
			agree += w
		}
	}
	if total == 0 {
		return 0, false
	}
	return agree / total, true
}
