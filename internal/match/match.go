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
//     Steps 1 and 2 depend on one side alone, so they are an Image of
//     the side's relation (image.go), keyed by the knowledge that fills
//     it: Build makes one per side and grows it over the relation
//     (Image.Grow), incremental maintenance (the hub's commit path, the
//     root facade's Federation) extends each arriving tuple the relation
//     has admitted (Image.Extend) and adopts it once the relation holds
//     it (Result.Append), and nobody else extends anything. A tuple's
//     shape is checked once, by the relation that holds or admits it
//     (relation.Admit), not again here.
//  3. Join R′ and S′ on identical non-NULL extended-key values; project
//     each matched pair onto (K_R, K_S) to form MT_RS. Step 3 is the
//     probe, tuple by tuple, over indexes the two images keep
//     (engine.go): BuildOn pairs two images and gives every R′ tuple the
//     probe, Result.Identify gives it to each arriving tuple, and each
//     image files every row it adopts; nobody else pairs anything up —
//     except the reference path, whose nested loops the probe is held
//     against. §3.2's constraints are checked in one place for a whole
//     table (Result.Verify) and in one for an arriving tuple
//     (Result.Identify, the insertion guard).
//     A pairing is the matching table, the effective distinctness rules
//     and that probe; the images under it may be other pairings' too.
//  4. Integrate: T_RS = MT_RS ⋈ R′ ⟗ S′ and §4.1's residual "possible
//     match" relation on it are read off R′, S′ and the table
//     (Result.Integrated, PossibleMatches); nothing else lays T_RS out.
//
// Negative information comes from distinctness rules: the user-supplied
// ones plus — via Proposition 1 — one rule per ILFD consequent. The
// conceptual negative matching table NMT_RS is enumerated lazily because
// it is usually far larger than MT_RS (§4.1).
//
// # Engine architecture
//
// The paper's semantics are evaluated by an indexed, blocked, word-wise
// engine; the naive formulation survives as the executable specification
// in reference.go (Config.Naive selects it, and differential tests pin
// the two paths to identical results).
//
//   - Partial bijection: under §3.2 uniqueness a sound matching table
//     pairs each tuple with at most one partner, so Table keeps its pairs
//     as an int32 log in the order added and, per side, a dense int32
//     partner array (-1 for none): Contains is one comparison, a tuple's
//     partner one read, and the uniqueness half of Verify is checked by
//     Add as each pair arrives. The few pairs an unchecked table holds in
//     breach of uniqueness sit in an overflow list beside the arrays.
//   - Compiled rules: every identity and distinctness rule is compiled
//     (rules.Compile) against the R′/S′ schemas once per Result, turning
//     each predicate evaluation into direct tuple-slice indexing instead
//     of per-evaluation Schema().Index lookups.
//   - Pinned distinctness rules: one pair's consistency check (every
//     Identify, every matched pair of Verify) does not walk the
//     rules: each is filed under its first "attribute = constant"
//     predicate and a pair's candidates are looked up by the values its
//     two tuples hold (engine.go); the first firing rule in declaration
//     order is still the answer.
//   - Image relations: an image is a relation.NewImage relation — a view
//     over the source relation: row i is the source's tuple i where it
//     lies, plus the cells the ILFDs derived for it, under no key index
//     of its own — and R′ and S′ are views of images in the pair's
//     columns (relation.NewView). The source relation guards the candidate keys R′/S′
//     inherit. The commit path reads a row one cell at a time
//     (relation.At) or, the 0–1 candidates per insert a rule must judge,
//     whole into scratch (TupleInto, Scratch); a sweep reads a row whole
//     only for a rule with a cross predicate, into the sweep plan's
//     scratch.
//   - Hashed, verified indexes: the extended-key join and the identity
//     rules' blocks file positions under a hash of the projection
//     (relation.PosIndex) and verify every candidate with value.Equal —
//     no projection is joined into a key string, so a match is a match
//     by comparison, whatever bytes the values hold.
//   - Blocking: the probe evaluates extra identity rules by hash-join
//     candidate generation over each rule's cross-equality attributes
//     (§3.2 well-formedness guarantees matched pairs agree on them),
//     scanning the opposite side only for rules with no usable equality.
//   - Verdict rows: Counts, NegativePairs and UndeterminedPairs read the
//     |R|×|S| grid one R′ tuple at a time, sequentially, as three column
//     bitsets (matching, not matching, undetermined): each distinctness
//     rule's single-side predicates are evaluated once per tuple, into a
//     row's survival bits and a column mask per rule, so a row is the OR
//     of the masks of the rules alive on it, and only cross predicates
//     are evaluated cell by cell (engine.go). Counts is popcounts; the
//     pair sweeps read bits in row-major order.
package match

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"slices"
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
	// Naive disables the indexed/blocked/word-wise engine and evaluates
	// with the reference implementation (reference.go): nested-loop
	// identity rules, linear-scan table membership, interpreted rule
	// predicates, cell-by-cell sweeps. It exists for differential testing
	// and benchmarking; results are identical either way.
	Naive bool
}

// Pair is one matching-table entry: positions of the matched tuples in
// the source relations.
type Pair struct {
	RIndex, SIndex int
}

// SortPairs sorts pairs into the canonical (RIndex, SIndex) order two
// tables are compared in.
func SortPairs(ps []Pair) {
	slices.SortFunc(ps, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(a.RIndex, b.RIndex), cmp.Compare(a.SIndex, b.SIndex))
	})
}

// Table is a matching table: the pairs in the order they were added,
// with the key attributes used to display them. Under §3.2 uniqueness a
// sound table is a partial bijection between R and S, and it is stored as
// one: the log of pairs is two int32 columns, and beside it each side has
// a dense partner array, so membership is one comparison. A pair that
// finds its R or S tuple already matched breaks uniqueness: it is logged
// like any other, recorded as the table's violation if it is the first,
// and kept in a small overflow list instead of the partner arrays. Only
// an unchecked table — the batch path before Verify, a user assertion —
// ever holds one; Identify refuses such a pair before it is added.
// The zero Table is empty and ready to use. Not safe for concurrent
// mutation; concurrent reads are.
type Table struct {
	// RKey and SKey are the source relations' primary keys, whose values
	// identify the pair (the paper: "a matching table entry consists of
	// the key values of the pair of tuples").
	RKey, SKey []string

	// r and s are the log: pair k is (r[k], s[k]).
	r, s []int32
	// rOf[i] is the S position matched to R tuple i and sOf[j] the R
	// position matched to S tuple j, -1 for none.
	rOf, sOf []int32
	// over holds, in log order, the pairs that found a slot taken, and
	// unique describes the first of them; both are nil on a sound table.
	over   []Pair
	unique error
}

// NewTable returns a table of the given key attributes holding pairs,
// added in order.
func NewTable(rKey, sKey []string, pairs ...Pair) *Table {
	t := &Table{RKey: rKey, SKey: sKey}
	for _, p := range pairs {
		t.Add(p)
	}
	return t
}

// Len returns the number of pairs.
func (t *Table) Len() int { return len(t.r) }

// At returns pair k of the log.
func (t *Table) At(k int) Pair { return Pair{RIndex: int(t.r[k]), SIndex: int(t.s[k])} }

// All yields the pairs in log order.
func (t *Table) All() iter.Seq[Pair] {
	return func(yield func(Pair) bool) {
		for k := range t.r {
			if !yield(t.At(k)) {
				return
			}
		}
	}
}

// Pairs returns a copy of pairs [lo, hi) of the log, nil if that is
// empty.
func (t *Table) Pairs(lo, hi int) []Pair {
	if lo == hi {
		return nil
	}
	out := make([]Pair, hi-lo)
	for k := range out {
		out[k] = t.At(lo + k)
	}
	return out
}

// grow extends the partner arrays, unmatched, to cover rLen R tuples and
// sLen S tuples.
func (t *Table) grow(rLen, sLen int) {
	t.rOf = growPartners(t.rOf, rLen)
	t.sOf = growPartners(t.sOf, sLen)
}

func growPartners(of []int32, n int) []int32 {
	if n <= len(of) {
		return of
	}
	of = slices.Grow(of, n-len(of))
	for len(of) < n {
		of = append(of, -1)
	}
	return of
}

// Add appends a pair to the log. If its R or S tuple is already matched
// the table stops being sound: Uniqueness reports the first such pair.
func (t *Table) Add(p Pair) {
	t.grow(p.RIndex+1, p.SIndex+1)
	t.r, t.s = append(t.r, int32(p.RIndex)), append(t.s, int32(p.SIndex))
	j, i := t.rOf[p.RIndex], t.sOf[p.SIndex]
	switch {
	case j < 0 && i < 0:
		t.rOf[p.RIndex], t.sOf[p.SIndex] = int32(p.SIndex), int32(p.RIndex)
		return
	case t.unique != nil:
	case j >= 0:
		t.unique = &Violation{R: []int{p.RIndex}, S: []int{int(j), p.SIndex},
			err: fmt.Errorf("match: %w: R tuple %d matches S tuples %d and %d", ErrUniqueness, p.RIndex, j, p.SIndex)}
	default:
		t.unique = &Violation{R: []int{int(i), p.RIndex}, S: []int{p.SIndex},
			err: fmt.Errorf("match: %w: S tuple %d matches R tuples %d and %d", ErrUniqueness, p.SIndex, i, p.RIndex)}
	}
	t.over = append(t.over, p)
}

// Uniqueness returns the table's first §3.2 uniqueness violation — the
// first pair, in log order, whose R or S tuple an earlier pair had
// matched — or nil if it has none.
func (t *Table) Uniqueness() error { return t.unique }

// Contains reports whether the pair (i, j) is in the table.
func (t *Table) Contains(i, j int) bool {
	if uint(i) < uint(len(t.rOf)) && int(t.rOf[i]) == j && j >= 0 {
		return true
	}
	return t.over != nil && slices.Contains(t.over, Pair{RIndex: i, SIndex: j})
}

// MatchesOfR appends to dst the S positions matched to R tuple i, in log
// order: at most one on a sound table.
func (t *Table) MatchesOfR(dst []int, i int) []int {
	return t.matchesOf(dst, i, t.rOf, t.r, t.s)
}

// MatchesOfS appends to dst the R positions matched to S tuple j, in log
// order: at most one on a sound table.
func (t *Table) MatchesOfS(dst []int, j int) []int {
	return t.matchesOf(dst, j, t.sOf, t.s, t.r)
}

// matchesOf reads one side's partner array, or — on an unsound table,
// where a tuple may have several partners — scans the log.
func (t *Table) matchesOf(dst []int, i int, of, own, other []int32) []int {
	if t.over == nil {
		if uint(i) < uint(len(of)) && of[i] >= 0 {
			dst = append(dst, int(of[i]))
		}
		return dst
	}
	for k, x := range own {
		if int(x) == i {
			dst = append(dst, int(other[k]))
		}
	}
	return dst
}

// Reorder rewrites the log into the order of ps, provided ps holds the
// table's pairs: as many, each one the table contains, and no R position
// twice. On a sound table those are the same set, so the partner arrays
// stand as they are. Otherwise the table is left unchanged and the first
// discrepancy is returned.
func (t *Table) Reorder(ps []Pair) error {
	if t.unique != nil {
		return t.unique
	}
	if len(ps) != t.Len() {
		return fmt.Errorf("match: reorder: %d pairs given, the table holds %d", len(ps), t.Len())
	}
	seen := make([]uint64, (len(t.rOf)+63)/64)
	for k, p := range ps {
		if !t.Contains(p.RIndex, p.SIndex) {
			return fmt.Errorf("match: reorder: pair %d (%d,%d) is not in the table", k, p.RIndex, p.SIndex)
		}
		w, bit := p.RIndex/64, uint64(1)<<(p.RIndex%64)
		if seen[w]&bit != 0 {
			return fmt.Errorf("match: reorder: pair %d (%d,%d) repeats R tuple %d", k, p.RIndex, p.SIndex, p.RIndex)
		}
		seen[w] |= bit
	}
	for k, p := range ps {
		t.r[k], t.s[k] = int32(p.RIndex), int32(p.SIndex)
	}
	return nil
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

// Result is the outcome of Build: one pairing of two images.
type Result struct {
	// RPrime and SPrime are the extended relations (Table 6): views of
	// the two images (relation.NewView) in the pair's columns. Attribute
	// names are integrated names.
	RPrime, SPrime *relation.Relation
	// MT is the matching table (Table 7).
	MT *Table
	// Conflicts lists the derivation conflicts (fixpoint mode only) Build
	// found extending R, then S; BuildOn, on images grown by their owner,
	// leaves it nil — Image.Grow returned them.
	Conflicts []derive.Conflict
	// distinct holds the effective distinctness rules (user + Prop. 1).
	distinct []rules.DistinctnessRule
	extKey   []string
	// naive routes Classify/Counts/sweeps through the reference
	// implementation (set from Config.Naive).
	naive bool
	// px is the matching step (engine.go): the two images and the indexes
	// over them the pairing joins on.
	px probe
	// eng is the lazily built compiled-rule engine (engine.go).
	eng     *engine
	engOnce sync.Once
	// plan is the cached sweep plan (engine.go): built once, its
	// survival bits and column masks extended as the extended relations
	// grow (Append), instead of rebuilt per sweep. A sweep holds planMu
	// from the extension to its last row.
	plan   *sweepPlan
	planMu sync.Mutex
}

// validate checks cfg's relations, extended key and attribute map.
func validate(cfg Config) error {
	if cfg.R == nil || cfg.S == nil {
		return fmt.Errorf("match: R and S must both be set")
	}
	if len(cfg.ExtKey) == 0 {
		return fmt.Errorf("match: empty extended key")
	}
	byName := map[string]AttrMap{}
	for _, am := range cfg.Attrs {
		if am.Name == "" {
			return fmt.Errorf("match: attribute map entry with empty integrated name")
		}
		if _, dup := byName[am.Name]; dup {
			return fmt.Errorf("match: duplicate attribute map entry %q", am.Name)
		}
		if am.R != "" && !cfg.R.Schema().Has(am.R) {
			return fmt.Errorf("match: attribute %q: R has no attribute %q", am.Name, am.R)
		}
		if am.S != "" && !cfg.S.Schema().Has(am.S) {
			return fmt.Errorf("match: attribute %q: S has no attribute %q", am.Name, am.S)
		}
		if am.R != "" && am.S != "" {
			if rk, sk := cfg.R.Schema().KindOf(am.R), cfg.S.Schema().KindOf(am.S); rk != sk {
				return fmt.Errorf("match: attribute %q: kind mismatch %s vs %s", am.Name, rk, sk)
			}
		}
		byName[am.Name] = am
	}
	for _, k := range cfg.ExtKey {
		if _, ok := byName[k]; !ok {
			return fmt.Errorf("match: extended-key attribute %q not in attribute map", k)
		}
	}
	return nil
}

// resolve validates cfg and resolves its two sides.
func resolve(cfg Config) (r, s side, err error) {
	if err = validate(cfg); err != nil {
		return side{}, side{}, err
	}
	if r, err = resolveSide(cfg, true); err == nil {
		s, err = resolveSide(cfg, false)
	}
	return r, s, err
}

// Build runs the §4.2 matching-table construction: it extends each side
// into an image of its own (S first), then pairs the two (BuildOn). It
// fails if the configuration is inconsistent (unknown attributes, kind
// mismatches); soundness verification is a separate step (Verify) so
// callers can inspect an unsound table the way the prototype prints its
// warning.
func Build(cfg Config) (*Result, error) {
	rs, ss, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	var imgs [2]*Image
	var found [2][]derive.Conflict
	for n, sd := range []side{ss, rs} {
		if imgs[n], err = newImage(sd); err != nil {
			return nil, err
		}
		if found[n], err = imgs[n].Grow(); err != nil {
			return nil, err
		}
	}
	res, err := buildOn(cfg, rs, ss, imgs[1], imgs[0])
	if err != nil {
		return nil, err
	}
	res.Conflicts = append(found[1], found[0]...)
	return res, nil
}

// BuildOn pairs two images — r of cfg's R under its R′ knowledge, s of
// its S under its S′ knowledge, each extended to its relation's length —
// into a Result: R′ and S′ as views of them, the probe indexes the pair
// joins on (made on an image that lacks one, shared where another pairing
// has made it), and the matching table, read off a probe of every R′
// tuple. What it holds is what Build(cfg) holds. A Result that will not
// be kept gives its indexes back (Release).
func BuildOn(cfg Config, r, s *Image) (*Result, error) {
	rs, ss, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	return buildOn(cfg, rs, ss, r, s)
}

func buildOn(cfg Config, rs, ss side, r, s *Image) (*Result, error) {
	if !r.serves(&rs) || !s.serves(&ss) {
		return nil, fmt.Errorf("match: build: an image is not of its side's relation under its side's knowledge")
	}
	if r.rel.Len() != r.base.Len() || s.rel.Len() != s.base.Len() {
		return nil, fmt.Errorf("match: build: images of %d and %d rows over relations of %d and %d tuples",
			r.rel.Len(), s.rel.Len(), r.base.Len(), s.base.Len())
	}
	res := &Result{
		// Key attribute names are taken from the extended schemas, so they
		// reflect integrated names after renaming.
		MT:     &Table{RKey: rs.sch.PrimaryKey(), SKey: ss.sch.PrimaryKey()},
		extKey: append([]string(nil), cfg.ExtKey...),
		naive:  cfg.Naive,
	}
	var err error
	if res.RPrime, err = relation.NewView(rs.sch, r.rel); err == nil {
		res.SPrime, err = relation.NewView(ss.sch, s.rel)
	}
	if err != nil {
		return nil, fmt.Errorf("match: build: %w", err)
	}
	res.distinct = append(res.distinct, cfg.Distinct...)
	if !cfg.DisableProp1 {
		for _, f := range cfg.ILFDs {
			res.distinct = append(res.distinct, rules.ToDistinctness(f)...)
		}
	}
	res.newProbe(r, s, cfg.Identity)
	res.MT.grow(res.RPrime.Len(), res.SPrime.Len())
	if cfg.Naive {
		// The reference path reads its pairs off nested loops
		// (reference.go); the indexes stand for the inserts that may follow.
		for _, p := range referencePairs(res.RPrime, res.SPrime, cfg.ExtKey, cfg.Identity) {
			res.MT.Add(p)
		}
		return res, nil
	}
	// The matching step: each R′ tuple gets the probe an arriving one gets
	// (engine.go), against the whole of S′.
	var x Extended
	var sc Scratch
	x.img = r
	for i := range r.rel.Len() {
		x.row = r.rel.TupleInto(x.buf, i)
		x.buf = x.row
		partners := res.probe(true, &x, &sc)
		slices.Sort(partners) // rows are probed in order: the table is sorted
		for _, j := range partners {
			res.MT.Add(Pair{RIndex: i, SIndex: j})
		}
	}
	return res, nil
}

// Release gives the result's probe indexes back to its images: an index
// no other pairing uses is dropped. A released Result must not be probed
// or grown again.
func (res *Result) Release() {
	px := &res.px
	for n := range px.img {
		if px.byKey[n] != nil {
			px.img[n].release(px.byKey[n])
		}
		for k := range px.rules {
			if b := px.rules[k].blocks[n]; b != nil {
				px.img[n].release(b)
			}
		}
	}
	px.byKey, px.rules = [2]*imageIndex{}, nil
}

// Image returns the image R′ (left) or S′ is a view of.
func (res *Result) Image(left bool) *Image {
	own, _ := sides(left)
	return res.px.img[own]
}

// ErrUniqueness and ErrConsistency are the two ways a matching table
// can be unsound (§3.2); what Verify returns wraps one of them.
var (
	ErrUniqueness  = errors.New("uniqueness violation")
	ErrConsistency = errors.New("consistency violation")
)

// A Violation is an unsound table's first violation, what Uniqueness and
// Verify return: the R and S positions of the tuples it involves — a
// tuple and the two it matches, or a matched pair a distinctness rule
// declares distinct — and the error, which wraps ErrUniqueness or
// ErrConsistency.
type Violation struct {
	R, S []int
	err  error
}

func (v *Violation) Error() string { return v.err.Error() }
func (v *Violation) Unwrap() error { return v.err }

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
// Uniqueness was checked as each pair was added (Table.Add), so what is
// left is one pass over the matching table with the compiled
// distinctness rules (interpreted rules under Config.Naive).
func (res *Result) Verify() error {
	if err := res.MT.Uniqueness(); err != nil {
		return err
	}
	if res.naive {
		return res.referenceVerifyConsistency()
	}
	eng := res.engine()
	var rt, st relation.Tuple
	for p := range res.MT.All() {
		rt, st = res.RPrime.TupleInto(rt, p.RIndex), res.SPrime.TupleInto(st, p.SIndex)
		if name, fires := eng.distinctFiresNamed(rt, st); fires {
			return &Violation{R: []int{p.RIndex}, S: []int{p.SIndex},
				err: fmt.Errorf("match: %w: pair (%d,%d) matched but distinctness rule %q fires",
					ErrConsistency, p.RIndex, p.SIndex, name)}
		}
	}
	return nil
}

// Identify is Verify for one arriving tuple, before it joins the table:
// §3.2's insertion guard. A tuple its side's image (left: R′'s) has
// extended gets the probe Build gave every R′ tuple, and is refused if
// the pair it would form breaks uniqueness — it matches several tuples
// at once, or one already matched — or consistency — a distinctness rule
// declares the pair distinct (the compiled rules, on the tuple laid out
// in its side's columns beside the partner read whole). The error wraps
// ErrUniqueness or ErrConsistency. Nothing changes but sc, and the pairs
// returned — none, or the one held in sc until its next use — are what
// Append is to add once the side's relation holds the tuple. The tuple
// is paired at the row its admission gave it (Extend), so a run's later
// tuple is identified, against the pairing as it stands, at the row it
// will take.
func (res *Result) Identify(left bool, x *Extended, sc *Scratch) ([]Pair, error) {
	if x.img != res.Image(left) {
		return nil, fmt.Errorf("match: identify: the tuple was not extended by the side's image")
	}
	partners := res.probe(left, x, sc)
	switch {
	case len(partners) > 1:
		return nil, fmt.Errorf("match: %w: insert would match %d tuples at once (unsound)", ErrUniqueness, len(partners))
	case len(partners) == 0:
		return nil, nil
	}
	j := partners[0]
	rt, st := res.opposite(left, j, sc), res.layout(left, x, sc)
	pair := Pair{RIndex: j, SIndex: x.at}
	var buf [1]int
	prev, side, otherSide := res.MT.MatchesOfR(buf[:0], j), "R", "S"
	if left {
		rt, st = st, rt
		pair = Pair{RIndex: x.at, SIndex: j}
		prev, side, otherSide = res.MT.MatchesOfS(buf[:0], j), "S", "R"
	}
	if len(prev) > 0 {
		return nil, fmt.Errorf("match: %w: %s tuple %d already matched to %s tuple %d", ErrUniqueness, side, j, otherSide, prev[0])
	}
	if name, fires := res.engine().distinctFiresNamed(rt, st); fires {
		return nil, fmt.Errorf("match: %w: new tuple matches a pair distinctness rule %q forbids", ErrConsistency, name)
	}
	sc.pair[0] = pair
	return sc.pair[:], nil
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

// Counts enumerates all |R|×|S| pairs and tallies the three verdicts —
// the Figure 3 partition. Completeness holds exactly when undetermined
// is zero. Each R′ tuple's verdict row is counted by popcount
// (engine.go).
func (res *Result) Counts() (matching, notMatching, undetermined int) {
	if res.naive {
		return res.referenceCounts()
	}
	return res.sweepCounts()
}

// NegativePairs enumerates up to limit entries of the conceptual
// negative matching table NMT_RS: pairs some distinctness rule declares
// distinct. limit <= 0 means no limit. Matched pairs are excluded (a
// pair in both tables is a consistency violation Verify reports; the
// NMT view follows the classifier). Enumeration order is row-major.
func (res *Result) NegativePairs(limit int) []Pair {
	if res.naive {
		return res.referenceSweep(NotMatching, limit)
	}
	return res.sweepPairs(NotMatching, limit)
}

// UndeterminedPairs enumerates up to limit undetermined pairs.
func (res *Result) UndeterminedPairs(limit int) []Pair {
	if res.naive {
		return res.referenceSweep(Undetermined, limit)
	}
	return res.sweepPairs(Undetermined, limit)
}

// ExtKey returns the extended key attributes the result was built with.
func (res *Result) ExtKey() []string { return append([]string(nil), res.extKey...) }

// Distinct returns the effective distinctness rules (user + Prop. 1).
func (res *Result) Distinct() []rules.DistinctnessRule {
	return append([]rules.DistinctnessRule(nil), res.distinct...)
}

// PrefixR and PrefixS prefix R′'s and S′'s attribute names in the
// columns of the matching table and the integrated table: the
// prototype's column names (r_name, s_speciality, …).
const (
	PrefixR = "r_"
	PrefixS = "s_"
)

// RenderMT renders the matching table in the prototype's print format:
// columns are R's key attributes then S's key attributes, one row per
// pair, sorted lexicographically (the prototype's setof ordering).
func (res *Result) RenderMT(title string) string {
	header := make([]string, 0, len(res.MT.RKey)+len(res.MT.SKey))
	for _, a := range res.MT.RKey {
		header = append(header, PrefixR+a)
	}
	for _, a := range res.MT.SKey {
		header = append(header, PrefixS+a)
	}
	var rows []relation.Tuple
	for p := range res.MT.All() {
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

// integratedRows lays out T_RS's rows as positions in R′ and S′, -1 for
// a padded side: each R′ tuple in order, once per partner in log order
// or once alone, then each unmatched S′ tuple in order.
func (res *Result) integratedRows() []Pair {
	rows := make([]Pair, 0, res.RPrime.Len()+res.SPrime.Len())
	var partners []int
	for i := range res.RPrime.Len() {
		partners = res.MT.MatchesOfR(partners[:0], i)
		if len(partners) == 0 {
			rows = append(rows, Pair{RIndex: i, SIndex: -1})
		}
		for _, j := range partners {
			rows = append(rows, Pair{RIndex: i, SIndex: j})
		}
	}
	for j := range res.SPrime.Len() {
		if len(res.MT.MatchesOfS(partners[:0], j)) == 0 {
			rows = append(rows, Pair{RIndex: -1, SIndex: j})
		}
	}
	return rows
}

// Integrated builds the integrated table T_RS = MT_RS ⋈ R′ ⟗ S′
// (§4.1–4.2): one row per matching-table pair, holding its two tuples,
// and one per unmatched tuple of either relation, padded with NULL on
// the other side. Its columns are R′'s attributes prefixed PrefixR, then
// S′'s prefixed PrefixS. The prototype prints this table (§6.3's
// print_integ_table).
func (res *Result) Integrated() (*relation.Relation, error) {
	rs, ss := res.RPrime.Schema(), res.SPrime.Schema()
	attrs := make([]schema.Attribute, 0, rs.Arity()+ss.Arity())
	for _, a := range rs.Attrs() {
		attrs = append(attrs, schema.Attribute{Name: PrefixR + a.Name, Kind: a.Kind})
	}
	for _, a := range ss.Attrs() {
		attrs = append(attrs, schema.Attribute{Name: PrefixS + a.Name, Kind: a.Kind})
	}
	sch, err := schema.New("T_RS", attrs)
	if err != nil {
		return nil, err
	}
	out := relation.New(sch)
	nullR, nullS := make(relation.Tuple, rs.Arity()), make(relation.Tuple, ss.Arity()) // zero Values: NULL
	for _, p := range res.integratedRows() {
		rt, st := nullR, nullS
		if p.RIndex >= 0 {
			rt = res.RPrime.Tuple(p.RIndex)
		}
		if p.SIndex >= 0 {
			st = res.SPrime.Tuple(p.SIndex)
		}
		if err := out.Insert(slices.Concat(rt, st)); err != nil {
			return nil, fmt.Errorf("match: integrated table: %w", err)
		}
	}
	return out, nil
}

// RenderIntegrated renders T_RS in the prototype's print format, sorted
// by the whole row.
func (res *Result) RenderIntegrated(title string) string {
	tab, err := res.Integrated()
	if err == nil {
		err = tab.Sort()
	}
	if err != nil {
		return err.Error()
	}
	return relation.Format(title, tab.Schema().AttrNames(), tab.Tuples())
}

// PossibleMatches returns the pairs of T_RS rows, numbered as Integrated
// lays them out, that could still model the same real-world entity —
// §4.1's residual relation: an unmatched R′ row and an unmatched S′ row
// whose extended-key values hold no two conflicting non-NULL values. It
// fails on a matched pair whose extended-key values conflict: the table
// merged tuples the extended key distinguishes.
func (res *Result) PossibleMatches() ([][2]int, error) {
	type open struct {
		row int
		key []value.Value
	}
	var rOpen, sOpen []open
	for n, p := range res.integratedRows() {
		var rk, sk []value.Value
		if p.RIndex >= 0 {
			rk = res.extKeyOf(res.RPrime, p.RIndex)
		}
		if p.SIndex >= 0 {
			sk = res.extKeyOf(res.SPrime, p.SIndex)
		}
		switch {
		case sk == nil:
			rOpen = append(rOpen, open{n, rk})
		case rk == nil:
			sOpen = append(sOpen, open{n, sk})
		default:
			if x := conflictAt(rk, sk); x >= 0 {
				return nil, fmt.Errorf("integrate: row %d: conflicting extended-key values %s vs %s for %q",
					n, rk[x], sk[x], res.extKey[x])
			}
		}
	}
	var out [][2]int
	for _, r := range rOpen {
		for _, s := range sOpen {
			if conflictAt(r.key, s.key) < 0 {
				out = append(out, [2]int{r.row, s.row})
			}
		}
	}
	return out, nil
}

// extKeyOf returns tuple i of rel projected on the extended key.
func (res *Result) extKeyOf(rel *relation.Relation, i int) []value.Value {
	key := make([]value.Value, len(res.extKey))
	for x, a := range res.extKey {
		key[x] = rel.MustValue(i, a)
	}
	return key
}

// conflictAt returns the first position where a and b hold two
// different non-NULL values, or -1.
func conflictAt(a, b []value.Value) int {
	for x := range a {
		if !a[x].IsNull() && !b[x].IsNull() && !value.Equal(a[x], b[x]) {
			return x
		}
	}
	return -1
}
