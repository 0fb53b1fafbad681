// Package entityid is a library for entity identification in database
// integration, reproducing Lim, Srivastava, Prabhakar & Richardson
// (ICDE 1993): determining which tuples of two autonomous relations
// model the same real-world entity, soundly, even when the relations
// share no common candidate key.
//
// The workflow mirrors the paper:
//
//	sys := entityid.New()
//	sys.SetRelations(r, s)                       // two autonomous relations
//	sys.MapAttr("name", "r_name", "s_name")      // semantic correspondences
//	sys.MapAttr("cuisine", "r_cui", "")          // attribute only R models
//	sys.MapAttr("speciality", "", "s_spec")      // attribute only S models
//	sys.SetExtendedKey("name", "cuisine", "speciality")
//	sys.AddILFDText("speciality=Hunan -> cuisine=Chinese")
//	res, err := sys.Identify()                   // verified matching table
//	fmt.Print(res.RenderMatchingTable())
//	fmt.Print(res.RenderIntegratedTable())
//
// Identify extends both relations with their missing extended-key
// attributes, derives values with the registered instance-level
// functional dependencies (ILFDs), joins on the extended key, verifies
// the §3.2 uniqueness and consistency constraints, and builds the
// integrated table T_RS. Knowledge can be added incrementally; the
// process is monotonic (§3.3): matches and non-matches only grow,
// undetermined pairs only shrink.
//
// Beyond the paper's two-relation scope, the package federates N
// autonomous sources: a Hub (see NewHub and hub.go's example) registers
// named sources, links pairs with per-pair correspondences, extended
// keys, ILFDs and rules, streams inserts concurrently, identifying each
// against every link of its source, and folds the pairwise matching
// tables into global entity clusters — with the §3.2 uniqueness
// constraint enforced transitively across sources and a merged
// cross-source record per entity. See examples/hub for a three-source
// walkthrough and cmd/entityidd for the JSON/NDJSON serving front-end.
//
// The underlying machinery lives in internal packages (relation model,
// relational algebra, ILFD theory with Armstrong-style axioms, rule
// language, derivation engine, matching, §2.2 baselines, synthetic
// workloads); this package is the stable public surface.
package entityid

import (
	"fmt"
	"slices"
	"strings"

	"entityid/internal/derive"
	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/quality"
	"entityid/internal/relation"
	"entityid/internal/resolve"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// Re-exported core types, so typical callers only import this package.
type (
	// Relation is an in-memory relation (ordered tuples over a schema
	// with candidate keys).
	Relation = relation.Relation
	// Tuple is one row of a relation.
	Tuple = relation.Tuple
	// Schema describes a relation's attributes and candidate keys.
	Schema = schema.Schema
	// Attribute is one named, typed column.
	Attribute = schema.Attribute
	// Value is a typed attribute value (string/int/float/bool/NULL).
	Value = value.Value
	// ILFD is an instance-level functional dependency.
	ILFD = ilfd.ILFD
	// DistinctnessRule asserts e1 ≢ e2 when its predicates hold.
	DistinctnessRule = rules.DistinctnessRule
	// Verdict is the three-valued identification outcome.
	Verdict = match.Verdict
	// Pair is one matching-table entry (tuple positions in R and S).
	Pair = match.Pair
)

// The three verdicts (§3.2).
const (
	Matching     = match.Matching
	NotMatching  = match.NotMatching
	Undetermined = match.Undetermined
)

// Kind identifies a value's dynamic type. Attribute declarations may
// omit the kind; it defaults to string.
type Kind = value.Kind

// The value kinds.
const (
	KindString = value.KindString
	KindInt    = value.KindInt
	KindFloat  = value.KindFloat
	KindBool   = value.KindBool
)

// Value constructors.
var (
	// Null is the NULL value.
	Null = value.Null
	// String wraps a string value.
	String = value.String
	// Int wraps an integer value.
	Int = value.Int
	// Float wraps a float value.
	Float = value.Float
	// Bool wraps a boolean value.
	Bool = value.Bool
)

// NewRelation creates an empty relation over a schema built from the
// given attributes and candidate keys (no keys: the whole attribute set
// is the key, per the paper's convention).
func NewRelation(name string, attrs []Attribute, keys ...[]string) (*Relation, error) {
	sch, err := schema.New(name, attrs, keys...)
	if err != nil {
		return nil, err
	}
	return relation.New(sch), nil
}

// ParseILFD parses one ILFD in the text format
// "a=1 & b=2 -> c=3" with string-typed values.
func ParseILFD(line string) (ILFD, error) { return ilfd.ParseLine(line) }

// System accumulates an entity-identification problem: two relations,
// attribute correspondences, an extended key, ILFDs and distinctness
// rules. The zero value is unusable; call New.
type System struct {
	r, s     *relation.Relation
	attrs    []match.AttrMap
	extKey   []string
	ilfds    ilfd.Set
	identity []rules.IdentityRule
	distinct []rules.DistinctnessRule
	asserted []assertedPair
	mode     derive.Mode
	prop1Off bool
}

type assertedPair struct {
	rKey, sKey []value.Value
}

// New creates an empty system.
func New() *System {
	return &System{}
}

// SetRelations registers the two source relations.
func (sys *System) SetRelations(r, s *Relation) *System {
	sys.r, sys.s = r, s
	return sys
}

// MapAttr declares an integrated-world attribute and its location in
// each relation; pass "" for a side that does not model the attribute.
// Every extended-key attribute and every attribute mentioned by an ILFD
// or distinctness rule must be mapped.
func (sys *System) MapAttr(name, rAttr, sAttr string) *System {
	sys.attrs = append(sys.attrs, match.AttrMap{Name: name, R: rAttr, S: sAttr})
	return sys
}

// SetExtendedKey declares the extended key (§4.1) over integrated
// attribute names.
func (sys *System) SetExtendedKey(attrs ...string) *System {
	sys.extKey = append([]string(nil), attrs...)
	return sys
}

// AddILFD registers an instance-level functional dependency.
func (sys *System) AddILFD(f ILFD) *System {
	sys.ilfds = append(sys.ilfds, f)
	return sys
}

// AddILFDText parses and registers an ILFD; it returns the parse error,
// if any.
func (sys *System) AddILFDText(line string) error {
	f, err := ilfd.ParseLine(line)
	if err != nil {
		return err
	}
	sys.ilfds = append(sys.ilfds, f)
	return nil
}

// ILFDs returns the registered ILFDs.
func (sys *System) ILFDs() []ILFD { return append([]ILFD(nil), sys.ilfds...) }

// IdentityRule asserts e1 ≡ e2 when its predicates hold; construct with
// the rules package (well-formedness per §3.2 is validated there).
type IdentityRule = rules.IdentityRule

// AddIdentityRule registers an extra identity rule evaluated alongside
// extended-key equivalence; pairs it matches join the matching table
// and are subject to the same §3.2 verification.
func (sys *System) AddIdentityRule(r IdentityRule) *System {
	sys.identity = append(sys.identity, r)
	return sys
}

// AddDistinctnessRule registers an extra distinctness rule.
func (sys *System) AddDistinctnessRule(d DistinctnessRule) *System {
	sys.distinct = append(sys.distinct, d)
	return sys
}

// AssertMatch records a user-specified matching pair (the §2.2
// "user-specified equivalence" escape hatch the paper's technique
// deliberately remains compatible with): key values for R's primary key
// and S's primary key. The pair is added to the matching table during
// Identify and participates in verification.
func (sys *System) AssertMatch(rKey, sKey []Value) *System {
	sys.asserted = append(sys.asserted, assertedPair{
		rKey: append([]value.Value(nil), rKey...),
		sKey: append([]value.Value(nil), sKey...),
	})
	return sys
}

// UseFixpointDerivation switches ILFD application from the prototype's
// first-match (cut) semantics to order-insensitive fixpoint semantics
// with conflict detection.
func (sys *System) UseFixpointDerivation() *System {
	sys.mode = derive.Fixpoint
	return sys
}

// DisableProp1 turns off the automatic ILFD → distinctness-rule
// conversion (Proposition 1); only explicitly added distinctness rules
// will produce non-match verdicts.
func (sys *System) DisableProp1() *System {
	sys.prop1Off = true
	return sys
}

// Result is a completed, verified identification outcome.
type Result struct {
	inner      *match.Result
	integrated *relation.Relation
	// VerifyErr is nil for a sound result. Identify only returns a
	// Result with VerifyErr != nil when called via IdentifyUnchecked.
	VerifyErr error
}

// Identify runs the §4.2 pipeline and verifies soundness; it fails
// closed on an unsound extended key (the prototype's warning becomes an
// error). Use IdentifyUnchecked to inspect an unsound result.
func (sys *System) Identify() (*Result, error) {
	res, err := sys.IdentifyUnchecked()
	if err != nil {
		return nil, err
	}
	if res.VerifyErr != nil {
		return nil, fmt.Errorf("entityid: unsound matching result: %w", res.VerifyErr)
	}
	return res, nil
}

// IdentifyUnchecked runs the pipeline and returns the result even when
// verification fails (VerifyErr reports the violation), mirroring the
// prototype, which prints the unsound table alongside its warning.
func (sys *System) IdentifyUnchecked() (*Result, error) {
	if sys.r == nil || sys.s == nil {
		return nil, fmt.Errorf("entityid: call SetRelations first")
	}
	if len(sys.extKey) == 0 {
		return nil, fmt.Errorf("entityid: call SetExtendedKey first")
	}
	inner, err := match.Build(match.Config{
		R:            sys.r,
		S:            sys.s,
		Attrs:        sys.attrs,
		ExtKey:       sys.extKey,
		ILFDs:        sys.ilfds,
		Identity:     sys.identity,
		Distinct:     sys.distinct,
		DeriveMode:   sys.mode,
		DisableProp1: sys.prop1Off,
	})
	if err != nil {
		return nil, err
	}
	// Fold in user-asserted pairs.
	for n, ap := range sys.asserted {
		i := sys.r.LookupKey(ap.rKey...)
		if i < 0 {
			return nil, fmt.Errorf("entityid: asserted pair %d: no R tuple with key %v", n, ap.rKey)
		}
		j := sys.s.LookupKey(ap.sKey...)
		if j < 0 {
			return nil, fmt.Errorf("entityid: asserted pair %d: no S tuple with key %v", n, ap.sKey)
		}
		if !inner.MT.Contains(i, j) {
			inner.MT.Add(match.Pair{RIndex: i, SIndex: j})
		}
	}
	res := &Result{inner: inner, VerifyErr: inner.Verify()}
	if res.integrated, err = inner.Integrated(); err != nil {
		return nil, err
	}
	return res, nil
}

// MatchingPairs returns the matching table as tuple-position pairs.
func (r *Result) MatchingPairs() []Pair {
	return r.inner.MT.Pairs(0, r.inner.MT.Len())
}

// Classify returns the three-valued verdict for R tuple i vs S tuple j.
func (r *Result) Classify(i, j int) Verdict { return r.inner.Classify(i, j) }

// Partition tallies the three verdicts over all pairs (Figure 3).
func (r *Result) Partition() quality.Partition {
	m, n, u := r.inner.Counts()
	return quality.Partition{Matching: m, NotMatching: n, Undetermined: u}
}

// ExtendedR returns R′, the source relation extended with derived
// extended-key attributes (Table 6).
func (r *Result) ExtendedR() *Relation { return r.inner.RPrime }

// ExtendedS returns S′.
func (r *Result) ExtendedS() *Relation { return r.inner.SPrime }

// IntegratedTable returns T_RS as a relation (columns r_*, s_*).
func (r *Result) IntegratedTable() *Relation { return r.integrated }

// PossibleMatches returns pairs of integrated rows that could still
// model the same entity (§4.1's residual relation).
func (r *Result) PossibleMatches() ([][2]int, error) {
	return r.inner.PossibleMatches()
}

// DerivationConflicts lists fixpoint-mode derivation conflicts.
func (r *Result) DerivationConflicts() []derive.Conflict {
	return append([]derive.Conflict(nil), r.inner.Conflicts...)
}

// Federation is a live identification state over autonomous relations
// (virtual integration, §1): tuples stream in and are identified
// incrementally; knowledge grows monotonically. Obtain one with
// System.Federate.
type Federation struct {
	// cfg is the pair over the federation's own copies of the system's
	// relations, res its verified matching result, grown by every insert;
	// sc and x are what the one insert at a time works in.
	cfg match.Config
	res *match.Result
	sc  match.Scratch
	x   match.Extended
}

// Federate snapshots the system into a live federation. The system's
// current relations seed the federation (copied — later inserts do not
// touch the originals), and the initial matching table must verify.
func (sys *System) Federate() (*Federation, error) {
	if sys.r == nil || sys.s == nil {
		return nil, fmt.Errorf("entityid: call SetRelations first")
	}
	if len(sys.extKey) == 0 {
		return nil, fmt.Errorf("entityid: call SetExtendedKey first")
	}
	f := &Federation{cfg: match.Config{
		R:            sys.r.Clone(),
		S:            sys.s.Clone(),
		Attrs:        sys.attrs,
		ExtKey:       sys.extKey,
		ILFDs:        sys.ilfds,
		Identity:     sys.identity,
		Distinct:     sys.distinct,
		DeriveMode:   sys.mode,
		DisableProp1: sys.prop1Off,
	}}
	if err := f.rebuild(); err != nil {
		return nil, err
	}
	return f, nil
}

// rebuild runs batch identification over the federation's relations and
// verifies it, fail-closed like System.Identify.
func (f *Federation) rebuild() error {
	res, err := match.Build(f.cfg)
	if err != nil {
		return err
	}
	if err := res.Verify(); err != nil {
		return err
	}
	f.res = res
	return nil
}

// InsertR streams a tuple into relation R, identifying it immediately;
// it returns the new matching pairs (at most one). Inserts that would
// break the §3.2 constraints are rejected with the state unchanged.
func (f *Federation) InsertR(t Tuple) ([]Pair, error) { return f.insert(true, t) }

// InsertS streams a tuple into relation S.
func (f *Federation) InsertS(t Tuple) ([]Pair, error) { return f.insert(false, t) }

// insert is the hub's commit path on one pair: the side's relation admits
// the tuple (shape and candidate keys), its image extends it, Identify
// runs §3.2's insertion guard, the relation takes the tuple and Append
// has the image adopt it and the table grow. Every refusal comes before
// the relation takes the tuple, with nothing changed.
func (f *Federation) insert(left bool, t Tuple) ([]Pair, error) {
	rel := f.cfg.S
	if left {
		rel = f.cfg.R
	}
	a, err := rel.Admit(t)
	if err != nil {
		return nil, err
	}
	if _, err := f.res.Image(left).Extend(a, &f.x); err != nil {
		return nil, err
	}
	pairs, err := f.res.Identify(left, &f.x, &f.sc)
	if err != nil {
		return nil, err
	}
	if err := rel.InsertAdmitted(a); err != nil {
		return nil, err
	}
	if err := f.res.Append(left, &f.x, pairs, 0); err != nil {
		return nil, err
	}
	return slices.Clone(pairs), nil // pairs is f.sc's, until the next insert
}

// AddILFD grows the knowledge base; non-monotone or inconsistent
// knowledge is rejected and rolled back.
func (f *Federation) AddILFD(fd ILFD) error {
	// Rebuild under the grown knowledge and assert §3.3 monotonicity by
	// position: every pair matched before must still be. A refusal puts
	// back the previous knowledge and result, which the rebuild left be.
	prevILFDs, prev := f.cfg.ILFDs, f.res
	f.cfg.ILFDs = append(slices.Clip(prevILFDs), fd)
	err := f.rebuild()
	if err == nil {
		for p := range prev.MT.All() {
			if !f.res.MT.Contains(p.RIndex, p.SIndex) {
				err = fmt.Errorf("entityid: ILFD %v breaks monotonicity: pair (%d,%d) lost", fd, p.RIndex, p.SIndex)
				break
			}
		}
	}
	if err != nil {
		f.cfg.ILFDs, f.res = prevILFDs, prev
	}
	return err
}

// Pairs returns the current matching pairs.
func (f *Federation) Pairs() []Pair { return f.res.MT.Pairs(0, f.res.MT.Len()) }

// IntegratedTable returns the current integrated view.
func (f *Federation) IntegratedTable() (*Relation, error) {
	return f.res.Integrated()
}

// MergeStrategy selects how Merged resolves attribute-value conflicts
// between the two sides of a matched pair (§2's "attribute value
// conflict" problem, performable only after entity identification).
type MergeStrategy = resolve.Strategy

// The merge strategies.
const (
	// MergeCoalesce takes whichever side is non-NULL and records a
	// conflict when both sides disagree (keeping R's value).
	MergeCoalesce = resolve.Coalesce
	// MergePreferR prefers R's value.
	MergePreferR = resolve.PreferR
	// MergePreferS prefers S's value.
	MergePreferS = resolve.PreferS
	// MergeStrict fails on any disagreement.
	MergeStrict = resolve.Strict
)

// MergeConflict records one attribute-value disagreement found while
// merging.
type MergeConflict = resolve.Conflict

// Merged collapses the integrated table into a final relation with one
// column per integrated attribute, resolving each paired r_*/s_* column
// under the given strategy. It returns the merged relation plus any
// conflicts (empty under MergeStrict, which fails with the first one
// instead).
func (r *Result) Merged(strategy MergeStrategy) (*Relation, []MergeConflict, error) {
	// Integrated attribute X merges T_RS's columns r_X and s_X, either of
	// which may be absent; R's columns come first, so X takes its place
	// and kind from the first of them.
	sch := r.integrated.Schema()
	var attrs []Attribute
	var cols [][2]int
	for _, a := range sch.Attrs() {
		name, fromR := strings.CutPrefix(a.Name, match.PrefixR)
		if !fromR {
			name = strings.TrimPrefix(a.Name, match.PrefixS)
		}
		ri, si := sch.Index(match.PrefixR+name), sch.Index(match.PrefixS+name)
		switch {
		case !fromR && ri >= 0: // merged at r_X
			continue
		case ri >= 0 && si >= 0 && sch.Attr(si).Kind != a.Kind:
			return nil, nil, fmt.Errorf("entityid: merge %q: kind mismatch between %q and %q", name, a.Name, sch.Attr(si).Name)
		}
		attrs = append(attrs, Attribute{Name: name, Kind: a.Kind})
		cols = append(cols, [2]int{ri, si})
	}
	outSch, err := schema.New("integrated", attrs)
	if err != nil {
		return nil, nil, err
	}
	// A merged view is a bag: two entities may merge to the same values.
	out := relation.NewBag(outSch)
	var conflicts []MergeConflict
	for row, t := range r.integrated.Tuples() {
		merged := make(Tuple, len(cols))
		for n, c := range cols {
			rv, sv := cell(t, c[0]), cell(t, c[1])
			v, conflicted, err := resolve.Reduce(strategy, rv, sv)
			if conflicted {
				c := MergeConflict{Row: row, Attr: attrs[n].Name, RV: rv, SV: sv, Resolved: v}
				if err != nil { // MergeStrict fails where MergeCoalesce keeps R's value
					c.Resolved = rv
					return nil, nil, c
				}
				conflicts = append(conflicts, c)
			}
			merged[n] = v
		}
		if err := out.Insert(merged); err != nil {
			return nil, nil, fmt.Errorf("entityid: merge: %w", err)
		}
	}
	return out, conflicts, nil
}

// cell returns t[i], or NULL for a column T_RS lacks (i < 0).
func cell(t Tuple, i int) Value {
	if i < 0 {
		return value.Null
	}
	return t[i]
}

// RenderMatchingTable prints the matching table in the prototype's
// format.
func (r *Result) RenderMatchingTable() string {
	return r.inner.RenderMT("matching table")
}

// RenderIntegratedTable prints T_RS in the prototype's format.
func (r *Result) RenderIntegratedTable() string {
	return r.inner.RenderIntegrated("integrated table")
}
