// Package baselines implements the five pre-existing entity-
// identification approaches the paper surveys in §2.2, behind a common
// Matcher interface, so the experiments can measure the failure modes
// the paper argues qualitatively:
//
//  1. Key equivalence (Multibase): match on a common candidate key.
//  2. User-specified equivalence (Pegasus): an explicit mapping table.
//  3. Probabilistic key equivalence (Pu): subfield matching over key
//     values; a match needs only most subfields to agree.
//  4. Probabilistic attribute equivalence (Chatterjee & Segev): a
//     comparison value over all common attributes.
//  5. Heuristic rules (Wang & Madnick): rule-derived attributes feed an
//     equality match; the rules are heuristic, so the result may be
//     wrong.
//
// All matchers return match.Table pairs over tuple positions, like the
// paper's technique, so metrics can score them uniformly.
package baselines

import (
	"fmt"
	"sort"
	"strings"

	"entityid/internal/derive"
	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// Matcher is a baseline entity-identification technique.
type Matcher interface {
	// Name identifies the technique in reports.
	Name() string
	// Match pairs tuples of r with tuples of s.
	Match(r, s *relation.Relation) (*match.Table, error)
}

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

// Name implements Matcher.
func (k KeyEquivalence) Name() string { return "key-equivalence" }

// Match implements Matcher.
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

// UserSpecified implements §2.2's approach 2: the user supplies the
// pairing explicitly as (R primary-key values, S primary-key values)
// rows, the Pegasus-style mapping table. Entries that do not resolve to
// tuples are reported as errors (a stale mapping is user error, not a
// non-match).
type UserSpecified struct {
	// Mapping holds one entry per asserted pair: key values for R's
	// primary key followed by key values for S's primary key.
	Mapping [][]value.Value
}

// Name implements Matcher.
func (u UserSpecified) Name() string { return "user-specified" }

// Match implements Matcher.
func (u UserSpecified) Match(r, s *relation.Relation) (*match.Table, error) {
	rk := len(r.Schema().PrimaryKey())
	sk := len(s.Schema().PrimaryKey())
	var pairs []match.Pair
	for n, row := range u.Mapping {
		if len(row) != rk+sk {
			return nil, fmt.Errorf("baselines: mapping row %d has %d values, want %d+%d", n, len(row), rk, sk)
		}
		i := r.LookupKey(row[:rk]...)
		if i < 0 {
			return nil, fmt.Errorf("baselines: mapping row %d: no R tuple with key %v", n, row[:rk])
		}
		j := s.LookupKey(row[rk:]...)
		if j < 0 {
			return nil, fmt.Errorf("baselines: mapping row %d: no S tuple with key %v", n, row[rk:])
		}
		pairs = append(pairs, match.Pair{RIndex: i, SIndex: j})
	}
	return mkTable(r, s, pairs), nil
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

// Name implements Matcher.
func (p ProbabilisticKey) Name() string { return "probabilistic-key" }

// Match implements Matcher.
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

// Name implements Matcher.
func (p ProbabilisticAttr) Name() string { return "probabilistic-attribute" }

// Match implements Matcher.
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

// Heuristic implements §2.2's approach 5 (Wang & Madnick): heuristic
// rules — written in the same form as ILFDs but *not* guaranteed
// correct — infer additional attribute values, then tuples agreeing on
// the inferred Key attributes match. Because the knowledge is heuristic
// the result may be wrong; the experiments feed it deliberately noisy
// rules to quantify that.
type Heuristic struct {
	// Rules are applied with first-match (cut) semantics to both sides.
	Rules ilfd.Set
	// Key lists the integrated attributes to equate after inference;
	// each must exist (or be derivable) on both sides.
	Key []AttrPair
	// Derive lists attributes to add to each relation before applying
	// rules (integrated name and kind); attributes already present are
	// left alone.
	DeriveR, DeriveS []schema.Attribute
}

// Name implements Matcher.
func (h Heuristic) Name() string { return "heuristic-rules" }

// Match implements Matcher.
func (h Heuristic) Match(r, s *relation.Relation) (*match.Table, error) {
	rx, _, err := derive.Extend(r, r.Schema().Name()+"+", h.DeriveR, h.Rules, derive.Options{})
	if err != nil {
		return nil, err
	}
	sx, _, err := derive.Extend(s, s.Schema().Name()+"+", h.DeriveS, h.Rules, derive.Options{})
	if err != nil {
		return nil, err
	}
	if err := validatePairs(rx, sx, h.Key); err != nil {
		return nil, err
	}
	index := map[string][]int{}
	for j, t := range sx.Tuples() {
		if key, ok := projKey(sx, t, h.Key, false); ok {
			index[key] = append(index[key], j)
		}
	}
	var pairs []match.Pair
	for i, t := range rx.Tuples() {
		key, ok := projKey(rx, t, h.Key, true)
		if !ok {
			continue
		}
		for _, j := range index[key] {
			pairs = append(pairs, match.Pair{RIndex: i, SIndex: j})
		}
	}
	return mkTable(r, s, pairs), nil
}
