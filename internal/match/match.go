// Package match constructs matching tables — the paper's core algorithm
// (§4.2) — and implements the correctness machinery of §3: the
// uniqueness and consistency constraints, the three-valued
// match/non-match/undetermined classifier, and the extended-key
// soundness verification the prototype performs on setup_extkey (§6.3).
//
// The construction follows the paper step by step:
//
//  1. Extend R to R′ (and S to S′) with the extended-key attributes each
//     side is missing, NULL-initialised.
//  2. Apply the available ILFDs to derive missing extended-key values
//     (delegated to the derive package; cut or fixpoint semantics).
//     Steps 1 and 2 are one SideExtender step per tuple: Build loops it
//     over each side (SideExtender.Extend), incremental maintenance
//     (federate) runs it on each arriving tuple the side's relation has
//     admitted (Result.ExtendAdmitted), and nobody else extends anything.
//     A tuple's shape is checked once, by the relation that holds or
//     admits it (relation.Admit), not again here.
//  3. Join R′ and S′ on identical non-NULL extended-key values; project
//     each matched pair onto (K_R, K_S) to form MT_RS. Step 3 is
//     Result.Probe, tuple by tuple, over an index the Result keeps
//     (engine.go): Build indexes S′ and gives every R′ tuple the probe,
//     federate gives it to each arriving tuple and grows the same index
//     with Result.Append, and nobody else pairs anything up — except the
//     reference path, whose nested loops the probe is held against.
//
// Negative information comes from distinctness rules: the user-supplied
// ones plus — via Proposition 1 — one rule per ILFD consequent. The
// conceptual negative matching table NMT_RS is enumerated lazily because
// it is usually far larger than MT_RS (§4.1).
//
// # Engine architecture
//
// The paper's semantics are evaluated by an indexed, blocked, parallel
// engine; the naive formulation survives as the executable specification
// in reference.go (Config.Naive selects it, and differential tests pin
// the two paths to identical results).
//
//   - Pair index: Table backs its pair list with a hash set plus per-row
//     and per-column postings, so Contains is O(1) and the uniqueness
//     half of Verify is a single O(|MT|) pass. The index extends itself
//     lazily, so append-only mutation of Pairs stays supported.
//   - Compiled rules: every identity and distinctness rule is compiled
//     (rules.Compile) against the R′/S′ schemas once per Result, turning
//     each predicate evaluation into direct tuple-slice indexing instead
//     of per-evaluation Schema().Index lookups.
//   - Pinned distinctness rules: one pair's consistency check (every
//     incremental prepare, every matched pair of Verify) does not walk the
//     rules: each is filed under its first "attribute = constant"
//     predicate and a pair's candidates are looked up by the values its
//     two tuples hold (engine.go); the first firing rule in declaration
//     order is still the answer.
//   - Image relations: R′ and S′ are relation.NewImage relations — views
//     over the source relations: row i is the source's tuple i where it
//     lies, plus the cells the ILFDs derived for it, under no key index
//     of its own. The source relation guards the candidate keys R′/S′
//     inherit. The commit path reads a row one cell at a time
//     (relation.At) or, the 0–1 candidates per insert a rule must judge,
//     whole into scratch (TupleInto, Scratch); the sweeps walk with a
//     scratch row per worker.
//   - Hashed, verified indexes: the extended-key join and the identity
//     rules' blocks file positions under a hash of the projection
//     (relation.PosIndex) and verify every candidate with value.Equal —
//     no projection is joined into a key string, so a match is a match
//     by comparison, whatever bytes the values hold.
//   - Blocking: the probe evaluates extra identity rules by hash-join
//     candidate generation over each rule's cross-equality attributes
//     (§3.2 well-formedness guarantees matched pairs agree on them),
//     scanning the opposite side only for rules with no usable equality.
//   - Parallel sweeps: Counts, NegativePairs and UndeterminedPairs shard
//     the |R|×|S| grid across a GOMAXPROCS-sized worker pool and merge
//     shard results in deterministic row order.
package match

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"entityid/internal/derive"
	"entityid/internal/ilfd"
	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// AttrMap places one integrated-world attribute in the two source
// relations. R or S is empty when the relation does not model the
// attribute (it will be derived or stay NULL).
type AttrMap struct {
	Name string // integrated name (ILFDs and the extended key use this)
	R, S string // source attribute names; "" = absent
}

// Config is the input to Build.
type Config struct {
	// R and S are the source relations.
	R, S *relation.Relation
	// Attrs maps integrated attribute names to source attributes. Every
	// extended-key attribute, every attribute mentioned by an ILFD and
	// every attribute mentioned by a distinctness rule must appear here.
	Attrs []AttrMap
	// ExtKey lists the extended key's integrated attribute names.
	ExtKey []string
	// ILFDs supply derivation knowledge, written over integrated names.
	ILFDs ilfd.Set
	// Identity are extra identity rules (beyond extended-key
	// equivalence) over integrated names, evaluated on the extended
	// relations: any pair satisfying any rule — in either orientation —
	// joins the matching table. The §3.2 uniqueness requirement ("the
	// uniqueness of tuple in a relation satisfying the identity rule
	// conditions must be observed") is enforced by Verify like every
	// other source of pairs.
	Identity []rules.IdentityRule
	// Distinct are extra distinctness rules over integrated names.
	Distinct []rules.DistinctnessRule
	// DeriveMode selects cut (default) or fixpoint derivation.
	DeriveMode derive.Mode
	// DisableProp1 turns off the automatic ILFD → distinctness-rule
	// conversion of Proposition 1.
	DisableProp1 bool
	// Naive disables the indexed/blocked/parallel engine and evaluates
	// with the reference implementation (reference.go): nested-loop
	// identity rules, linear-scan table membership, interpreted rule
	// predicates, sequential sweeps. It exists for differential testing
	// and benchmarking; results are identical either way.
	Naive bool
}

// Pair is one matching-table entry: positions of the matched tuples in
// the source relations.
type Pair struct {
	RIndex, SIndex int
}

// Table is a matching table (or negative matching table): a set of
// tuple pairs with the key attributes used to display them.
type Table struct {
	// RKey and SKey are the source relations' primary keys, whose values
	// identify the pair (the paper: "a matching table entry consists of
	// the key values of the pair of tuples").
	RKey, SKey []string
	Pairs      []Pair

	// Pair index: a hash set for O(1) Contains plus per-row and
	// per-column postings for the O(|MT|) uniqueness pass of Verify.
	// Built lazily and extended incrementally, so code that appends to
	// Pairs directly (a supported, pre-index idiom) stays correct; idxLen
	// is how many Pairs entries have been absorbed. Not safe for
	// concurrent mutation; concurrent reads after an index() call are.
	set    map[Pair]struct{}
	byR    map[int][]int
	byS    map[int][]int
	idxLen int
}

// Len returns the number of pairs.
func (t *Table) Len() int { return len(t.Pairs) }

// index brings the pair index up to date with Pairs.
func (t *Table) index() {
	if t.set == nil {
		t.set = make(map[Pair]struct{}, len(t.Pairs))
		t.byR = make(map[int][]int, len(t.Pairs))
		t.byS = make(map[int][]int, len(t.Pairs))
	}
	for ; t.idxLen < len(t.Pairs); t.idxLen++ {
		p := t.Pairs[t.idxLen]
		t.set[p] = struct{}{}
		t.byR[p.RIndex] = append(t.byR[p.RIndex], p.SIndex)
		t.byS[p.SIndex] = append(t.byS[p.SIndex], p.RIndex)
	}
}

// Contains reports whether the pair (i, j) is in the table.
func (t *Table) Contains(i, j int) bool {
	t.index()
	_, ok := t.set[Pair{RIndex: i, SIndex: j}]
	return ok
}

// Add appends a pair, keeping the index current.
func (t *Table) Add(p Pair) {
	t.Pairs = append(t.Pairs, p)
	if t.set != nil {
		t.index()
	}
}

// MatchesOfR returns the S positions matched to R tuple i (shared; do
// not mutate).
func (t *Table) MatchesOfR(i int) []int {
	t.index()
	return t.byR[i]
}

// MatchesOfS returns the R positions matched to S tuple j (shared; do
// not mutate).
func (t *Table) MatchesOfS(j int) []int {
	t.index()
	return t.byS[j]
}

// Verdict is the three-valued outcome of the identification function
// (§3.2).
type Verdict int

// The three verdicts.
const (
	Undetermined Verdict = iota
	Matching
	NotMatching
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Matching:
		return "matching"
	case NotMatching:
		return "not-matching"
	case Undetermined:
		return "undetermined"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Result is the outcome of Build.
type Result struct {
	// RPrime and SPrime are the extended relations (Table 6). Attribute
	// names are integrated names.
	RPrime, SPrime *relation.Relation
	// MT is the matching table (Table 7).
	MT *Table
	// Conflicts lists derivation conflicts (fixpoint mode only).
	Conflicts []derive.Conflict
	// distinct holds the effective distinctness rules (user + Prop. 1).
	distinct []rules.DistinctnessRule
	extKey   []string
	// naive routes Classify/Counts/sweeps through the reference
	// implementation (set from Config.Naive).
	naive bool
	// px is the matching step's index (engine.go): filled by Build, probed
	// and grown by Probe and Append.
	px probe
	// eng is the lazily built compiled-rule engine (engine.go).
	eng     *engine
	engOnce sync.Once
	// plan is the cached sweep plan (engine.go): built once, its
	// per-tuple survival bitsets extended under planMu as the extended
	// relations grow (federate inserts), instead of rebuilt per sweep.
	plan   *sweepPlan
	planMu sync.Mutex
}

// Build runs the §4.2 matching-table construction. It fails if the
// configuration is inconsistent (unknown attributes, kind mismatches);
// soundness verification is a separate step (Verify) so callers can
// inspect an unsound table the way the prototype prints its warning.
func Build(cfg Config) (*Result, error) {
	if cfg.R == nil || cfg.S == nil {
		return nil, fmt.Errorf("match: R and S must both be set")
	}
	if len(cfg.ExtKey) == 0 {
		return nil, fmt.Errorf("match: empty extended key")
	}
	byName := map[string]AttrMap{}
	for _, am := range cfg.Attrs {
		if am.Name == "" {
			return nil, fmt.Errorf("match: attribute map entry with empty integrated name")
		}
		if _, dup := byName[am.Name]; dup {
			return nil, fmt.Errorf("match: duplicate attribute map entry %q", am.Name)
		}
		if am.R != "" && !cfg.R.Schema().Has(am.R) {
			return nil, fmt.Errorf("match: attribute %q: R has no attribute %q", am.Name, am.R)
		}
		if am.S != "" && !cfg.S.Schema().Has(am.S) {
			return nil, fmt.Errorf("match: attribute %q: S has no attribute %q", am.Name, am.S)
		}
		if am.R != "" && am.S != "" {
			if rk, sk := cfg.R.Schema().KindOf(am.R), cfg.S.Schema().KindOf(am.S); rk != sk {
				return nil, fmt.Errorf("match: attribute %q: kind mismatch %s vs %s", am.Name, rk, sk)
			}
		}
		byName[am.Name] = am
	}
	for _, k := range cfg.ExtKey {
		if _, ok := byName[k]; !ok {
			return nil, fmt.Errorf("match: extended-key attribute %q not in attribute map", k)
		}
	}

	rExt, rPrime, rConf, err := extendSide(cfg, true)
	if err != nil {
		return nil, err
	}
	sExt, sPrime, sConf, err := extendSide(cfg, false)
	if err != nil {
		return nil, err
	}
	res := &Result{
		RPrime: rPrime,
		SPrime: sPrime,
		// Key attribute names are taken from the extended relations, so
		// they reflect integrated names after renaming.
		MT:        &Table{RKey: rPrime.Schema().PrimaryKey(), SKey: sPrime.Schema().PrimaryKey()},
		Conflicts: append(rConf, sConf...),
		extKey:    append([]string(nil), cfg.ExtKey...),
		naive:     cfg.Naive,
	}
	res.distinct = append(res.distinct, cfg.Distinct...)
	if !cfg.DisableProp1 {
		for _, f := range cfg.ILFDs {
			res.distinct = append(res.distinct, rules.ToDistinctness(f)...)
		}
	}
	if err := res.newProbe(rExt, sExt, cfg.Identity); err != nil {
		return nil, err
	}

	// The matching step. Index S′, then give each R′ tuple the probe an
	// arriving tuple gets (engine.go) and index it too; the reference
	// path fills the same index, for the inserts that may follow, but
	// reads its pairs off nested loops (reference.go). Rows are read
	// through one scratch row.
	var row relation.Tuple
	var sc Scratch
	for j := 0; j < sPrime.Len(); j++ {
		row = sPrime.TupleInto(row, j)
		res.index(1, res.keys(1, row))
	}
	var pairs []Pair
	for i := 0; i < rPrime.Len(); i++ {
		row = rPrime.TupleInto(row, i)
		if cfg.Naive {
			res.index(0, res.keys(0, row))
			continue
		}
		partners, keys := res.Probe(true, row, &sc)
		res.index(0, keys)
		for _, j := range partners {
			pairs = append(pairs, Pair{RIndex: i, SIndex: j})
		}
	}
	if cfg.Naive {
		pairs = referencePairs(rPrime, sPrime, cfg.ExtKey, cfg.Identity)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].RIndex != pairs[b].RIndex {
			return pairs[a].RIndex < pairs[b].RIndex
		}
		return pairs[a].SIndex < pairs[b].SIndex
	})
	res.MT.Pairs = pairs
	return res, nil
}

// SideExtender turns tuples of one side's source relation into their
// extended form: attributes renamed to integrated names, the integrated
// attributes the side does not model appended as NULLs, then whatever
// the ILFDs derive filled in. The extended schema is resolved once, here,
// and its layout is fixed: a renamed attribute keeps its column and the
// missing attributes append in attribute-map order — so an extended
// image agrees with its source tuple, column for column, wherever that
// tuple is not NULL (an ILFD fills NULLs, the source's own included, and
// rewrites nothing), and offsets resolved against R′ or S′ (extended-key
// positions, compiled rules) apply to any tuple this extender produces.
// extendInto is the one extension step: Extend runs it over every tuple
// of a side, and incremental maintenance (the federate package) holds the
// extenders across inserts and runs it, through Result.ExtendAdmitted, on
// each arriving tuple.
type SideExtender struct {
	src *schema.Schema // the side's source schema
	sch *schema.Schema // R′ or S′
	ext *derive.Extender
}

// NewSideExtender resolves the extended schema for the left (R′) or right
// (S′) side of cfg. It fails if renaming or appending makes two
// attributes collide; it assumes cfg's attribute map was otherwise
// validated (Build does so).
func NewSideExtender(cfg Config, left bool) (*SideExtender, error) {
	name, rel, other := "R'", cfg.R, cfg.S
	if !left {
		name, rel, other = "S'", cfg.S, cfg.R
	}
	src := rel.Schema()
	rename := map[string]string{}
	var extra []schema.Attribute
	for _, am := range cfg.Attrs {
		from, otherFrom := am.R, am.S
		if !left {
			from, otherFrom = am.S, am.R
		}
		if from != "" {
			if from != am.Name {
				rename[from] = am.Name
			}
			continue
		}
		// The side is missing the attribute: append it, typed like the
		// other side's column or, failing that, an ILFD consequent.
		kind := value.KindString
		if otherFrom != "" {
			kind = other.Schema().KindOf(otherFrom)
		} else if k, ok := consequentKind(cfg.ILFDs, am.Name); ok {
			kind = k
		}
		extra = append(extra, schema.Attribute{Name: am.Name, Kind: kind})
	}
	attrs, keys := src.Attrs(), src.Keys()
	for i := range attrs {
		if nn, ok := rename[attrs[i].Name]; ok {
			attrs[i].Name = nn
		}
	}
	for _, k := range keys {
		for i := range k {
			if nn, ok := rename[k[i]]; ok {
				k[i] = nn
			}
		}
	}
	sch, err := schema.New(name, append(attrs, extra...), keys...)
	if err != nil {
		return nil, fmt.Errorf("match: extend %s: %w", src.Name(), err)
	}
	return &SideExtender{
		src: src,
		sch: sch,
		ext: derive.NewExtender(cfg.ILFDs, derive.Options{Mode: cfg.DeriveMode}),
	}, nil
}

// extendInto returns, over the scratch dst, the extended image of one
// tuple the side's source relation holds or has admitted — its shape is
// that relation's to check, and was — and the derivation conflicts found
// (fixpoint mode), reported at tuple index 0; t itself is left alone.
func (se *SideExtender) extendInto(dst, t relation.Tuple) (relation.Tuple, []derive.Conflict, error) {
	ext := append(dst[:0], t...)
	for n := se.sch.Arity(); len(ext) < n; {
		ext = append(ext, value.Null)
	}
	conflicts, err := se.ext.ExtendTuple(se.sch, ext)
	if err != nil {
		return nil, nil, err
	}
	return ext, conflicts, nil
}

// Extend builds the side's extended relation over rel, a relation with
// the side's source schema: an image relation (relation.NewImage) over
// rel, whose row i keeps what the image of rel's tuple i adds to it. rel
// has admitted its tuples — shape and keys — and goes on guarding them;
// conflicts carry the position of the tuple they arose in.
func (se *SideExtender) Extend(rel *relation.Relation) (*relation.Relation, []derive.Conflict, error) {
	if !rel.Schema().Equal(se.src) {
		return nil, nil, fmt.Errorf("match: extend: relation %s does not have the side's source schema %s", rel.Schema(), se.src)
	}
	out, err := relation.NewImage(se.sch, rel)
	if err != nil {
		return nil, nil, fmt.Errorf("match: extend: %w", err)
	}
	var conflicts []derive.Conflict
	var ext relation.Tuple
	for i, t := range rel.Tuples() {
		var cs []derive.Conflict
		if ext, cs, err = se.extendInto(ext, t); err != nil {
			return nil, nil, fmt.Errorf("match: extend: %w", err)
		}
		for _, c := range cs {
			c.TupleIndex = i
			conflicts = append(conflicts, c)
		}
		if err := out.Adopt(ext); err != nil {
			return nil, nil, fmt.Errorf("match: extend: %w", err)
		}
	}
	return out, conflicts, nil
}

// extendSide resolves one side's extender and builds its extended
// relation.
func extendSide(cfg Config, left bool) (*SideExtender, *relation.Relation, []derive.Conflict, error) {
	se, err := NewSideExtender(cfg, left)
	if err != nil {
		return nil, nil, nil, err
	}
	rel := cfg.S
	if left {
		rel = cfg.R
	}
	ext, conflicts, err := se.Extend(rel)
	return se, ext, conflicts, err
}

// consequentKind infers an attribute's kind from ILFD consequents.
func consequentKind(fs ilfd.Set, attr string) (value.Kind, bool) {
	for _, f := range fs {
		for _, c := range f.Consequent {
			if c.Attr == attr {
				return c.Val.Kind(), true
			}
		}
	}
	return value.KindNull, false
}

// ErrUniqueness and ErrConsistency are the two ways a matching table
// can be unsound (§3.2); what Verify returns wraps one of them.
var (
	ErrUniqueness  = errors.New("uniqueness violation")
	ErrConsistency = errors.New("consistency violation")
)

// Verify checks the §3.2 constraints on the matching table:
//
//   - uniqueness: no tuple of either relation matches more than one
//     tuple of the other (the prototype's setup_extkey check), and
//   - consistency: no matched pair is simultaneously declared distinct
//     by a distinctness rule.
//
// A nil return means the extended key produced a sound table (the
// prototype's "The extended key is verified."); otherwise the error
// describes the first violation (the prototype's "unsound matching
// result" warning).
//
// Both halves are a single pass over the matching table: uniqueness via
// O(1) seen-maps, consistency via the compiled distinctness rules
// (interpreted rules under Config.Naive).
func (res *Result) Verify() error {
	res.MT.index()
	seenR := make(map[int]int, len(res.MT.Pairs))
	seenS := make(map[int]int, len(res.MT.Pairs))
	for _, p := range res.MT.Pairs {
		if j, dup := seenR[p.RIndex]; dup {
			return fmt.Errorf("match: %w: R tuple %d matches S tuples %d and %d",
				ErrUniqueness, p.RIndex, j, p.SIndex)
		}
		seenR[p.RIndex] = p.SIndex
		if i, dup := seenS[p.SIndex]; dup {
			return fmt.Errorf("match: %w: S tuple %d matches R tuples %d and %d",
				ErrUniqueness, p.SIndex, i, p.RIndex)
		}
		seenS[p.SIndex] = p.RIndex
	}
	if res.naive {
		return res.referenceVerifyConsistency()
	}
	eng := res.engine()
	var rt, st relation.Tuple
	for _, p := range res.MT.Pairs {
		rt, st = res.RPrime.TupleInto(rt, p.RIndex), res.SPrime.TupleInto(st, p.SIndex)
		if name, fires := eng.distinctFiresNamed(rt, st); fires {
			return fmt.Errorf("match: %w: pair (%d,%d) matched but distinctness rule %q fires",
				ErrConsistency, p.RIndex, p.SIndex, name)
		}
	}
	return nil
}

// Classify returns the three-valued verdict for the pair (i, j): in the
// matching table ⇒ Matching; some distinctness rule fires ⇒ NotMatching;
// otherwise Undetermined (§3.2, Figure 3).
func (res *Result) Classify(i, j int) Verdict {
	if res.naive {
		return res.referenceClassify(i, j, res.RPrime.Tuple(i), res.SPrime.Tuple(j))
	}
	if res.MT.Contains(i, j) {
		return Matching
	}
	if res.engine().distinctFires(res.RPrime.Tuple(i), res.SPrime.Tuple(j)) {
		return NotMatching
	}
	return Undetermined
}

// DistinctFires reports whether any effective distinctness rule (user +
// Prop. 1) declares the pair of tuples distinct, in either orientation,
// along with the first firing rule's name. The tuples must be laid out
// like R′ and S′ tuples respectively; incremental pipelines (federate)
// use it to test candidate tuples that are not yet part of the extended
// relations, reusing the result's compiled rules.
func (res *Result) DistinctFires(rt, st relation.Tuple) (string, bool) {
	return res.engine().distinctFiresNamed(rt, st)
}

// Counts enumerates all |R|×|S| pairs and tallies the three verdicts —
// the Figure 3 partition. Completeness holds exactly when undetermined
// is zero. The grid is sharded across a worker pool (engine.go); the
// tallies are additive, so the merge is order-independent.
func (res *Result) Counts() (matching, notMatching, undetermined int) {
	if res.naive {
		return res.referenceCounts()
	}
	return res.parallelCounts()
}

// NegativePairs enumerates up to limit entries of the conceptual
// negative matching table NMT_RS: pairs some distinctness rule declares
// distinct. limit <= 0 means no limit. Matched pairs are excluded (a
// pair in both tables is a consistency violation Verify reports; the
// NMT view follows the classifier). Enumeration order is row-major
// regardless of how the parallel sweep shards the grid.
func (res *Result) NegativePairs(limit int) []Pair {
	if res.naive {
		return res.referenceSweep(NotMatching, limit)
	}
	return res.parallelSweep(NotMatching, limit)
}

// UndeterminedPairs enumerates up to limit undetermined pairs.
func (res *Result) UndeterminedPairs(limit int) []Pair {
	if res.naive {
		return res.referenceSweep(Undetermined, limit)
	}
	return res.parallelSweep(Undetermined, limit)
}

// ExtKey returns the extended key attributes the result was built with.
func (res *Result) ExtKey() []string { return append([]string(nil), res.extKey...) }

// Distinct returns the effective distinctness rules (user + Prop. 1).
func (res *Result) Distinct() []rules.DistinctnessRule {
	return append([]rules.DistinctnessRule(nil), res.distinct...)
}

// RenderMT renders the matching table in the prototype's print format:
// columns are R's key attributes then S's key attributes, one row per
// pair, sorted lexicographically (the prototype's setof ordering).
func (res *Result) RenderMT(title string) string {
	header := make([]string, 0, len(res.MT.RKey)+len(res.MT.SKey))
	for _, a := range res.MT.RKey {
		header = append(header, "r_"+a)
	}
	for _, a := range res.MT.SKey {
		header = append(header, "s_"+a)
	}
	var rows []relation.Tuple
	for _, p := range res.MT.Pairs {
		row := make(relation.Tuple, 0, len(header))
		for _, a := range res.MT.RKey {
			row = append(row, res.RPrime.MustValue(p.RIndex, a))
		}
		for _, a := range res.MT.SKey {
			row = append(row, res.SPrime.MustValue(p.SIndex, a))
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(a, b int) bool {
		for i := range rows[a] {
			if c := value.Compare(rows[a][i], rows[b][i]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return relation.Format(title, header, rows)
}
