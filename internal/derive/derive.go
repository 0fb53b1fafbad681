// Package derive applies ILFDs to relations to fill in missing
// extended-key attribute values, the R → R′ extension step of §4.2.
//
// Two modes reproduce the two derivation disciplines discussed in the
// paper:
//
//   - FirstMatch mirrors the Prolog prototype (§6.1): ILFDs are tried in
//     order and a cut prevents later rules from firing for an attribute
//     once one has succeeded. Rule order is significant; conflicting
//     ILFDs are silently resolved in favour of the earliest.
//
//   - Fixpoint is order-insensitive: all applicable ILFDs fire
//     repeatedly until no new values are derivable, and two ILFDs
//     deriving different values for the same attribute of the same tuple
//     is reported as a conflict instead of masked.
//
// Both modes chain: a derived value can satisfy another ILFD's
// antecedent (the paper's I9 = I7 ∘ I8 example: street → county and
// name ∧ county → speciality compose to derive speciality from name and
// street). Attributes that no ILFD derives default to NULL, matching the
// prototype's "assert NULL after all ILFDs fail" idiom (§6.2).
package derive

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"entityid/internal/ilfd"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// Mode selects the derivation discipline.
type Mode int

// The derivation modes.
const (
	// FirstMatch applies ILFDs in order with cut semantics (the Prolog
	// prototype's behaviour).
	FirstMatch Mode = iota
	// Fixpoint applies all ILFDs to a fixpoint and reports conflicts.
	Fixpoint
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case FirstMatch:
		return "first-match"
	case Fixpoint:
		return "fixpoint"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Conflict records two ILFDs deriving different values for the same
// attribute of the same tuple (Fixpoint mode only).
type Conflict struct {
	TupleIndex int
	Attr       string
	Old, New   value.Value
}

// Error satisfies the error interface.
func (c Conflict) Error() string {
	return fmt.Sprintf("derive: conflict on tuple %d attribute %q: %s vs %s",
		c.TupleIndex, c.Attr, c.Old, c.New)
}

// Options configures Extend.
type Options struct {
	// Mode selects cut vs fixpoint semantics. The zero value is
	// FirstMatch, the prototype's behaviour.
	Mode Mode
	// MaxRounds bounds chaining depth (0 means len(ILFDs)+1 rounds, which
	// suffices for any terminating chain).
	MaxRounds int
}

// Extend returns a copy of rel extended with the `extra` attributes
// (NULL-initialised) and with every attribute of the *extended* schema
// that the ILFDs can derive filled in. Existing non-NULL values are
// never overwritten: source data takes precedence over derived data, and
// in Fixpoint mode an ILFD contradicting an existing non-NULL value is a
// conflict.
//
// The relation's candidate keys are preserved; the extended relation is
// named name. Each tuple is padded and derived by the step ExtendTuple
// is; a caller extending tuple by tuple (per-insert incremental
// identification) builds an Extender once and calls that.
func Extend(rel *relation.Relation, name string, extra []schema.Attribute, fs ilfd.Set, opts Options) (*relation.Relation, []Conflict, error) {
	sch := rel.Schema()
	for _, a := range extra {
		if sch.Has(a.Name) {
			return nil, nil, fmt.Errorf("derive: relation %s already has attribute %q", sch.Name(), a.Name)
		}
	}
	extSch, err := sch.Extend(name, extra)
	if err != nil {
		return nil, nil, err
	}
	e := NewExtender(fs, opts)
	out := relation.New(extSch)
	var conflicts []Conflict
	for idx, t := range rel.Tuples() {
		// The columns past the source arity are zero Values: NULL.
		ext := make(relation.Tuple, extSch.Arity())
		copy(ext, t)
		rowConflicts, err := e.extendAt(extSch, ext, idx)
		if err != nil {
			return nil, nil, err
		}
		conflicts = append(conflicts, rowConflicts...)
		if err := out.Insert(ext); err != nil {
			return nil, nil, fmt.Errorf("derive: %w", err)
		}
	}
	return out, conflicts, nil
}

// Extender applies a fixed ILFD set under fixed options. The ILFDs are
// bound to an extended schema — attributes resolved to column offsets,
// rules indexed by column and value — once per schema, not per tuple:
// ExtendTuple keeps the binding of the schema it was last given, so a
// caller that holds one extended schema across tuples (Extend,
// match.SideExtender) pays for it once.
type Extender struct {
	fs   ilfd.Set
	opts Options
	last atomic.Pointer[program]
}

// NewExtender prepares an extender for the ILFD set.
func NewExtender(fs ilfd.Set, opts Options) *Extender {
	return &Extender{fs: fs, opts: opts}
}

// bound returns the ILFD set bound to extSch. Schemas are immutable, so
// pointer identity is a sound cache key; concurrent callers with
// different schemas at worst bind again.
func (e *Extender) bound(extSch *schema.Schema) *program {
	if p := e.last.Load(); p != nil && p.sch == extSch {
		return p
	}
	p := bind(e.fs, extSch)
	e.last.Store(p)
	return p
}

// ExtendTuple derives a single pre-padded tuple in place against the
// extended schema extSch (the tuple must already have extSch's arity,
// with NULLs in underived positions). It returns the conflicts found
// (Fixpoint mode), reported at tuple index 0. This is the per-tuple step
// every extension runs: match.SideExtender.ExtendTuple pads a source
// tuple into its side's extended schema and calls it, for one inserted
// tuple (federate's prepare) and for each tuple of a batch build alike.
func (e *Extender) ExtendTuple(extSch *schema.Schema, ext relation.Tuple) ([]Conflict, error) {
	return e.extendAt(extSch, ext, 0)
}

// extendAt is ExtendTuple reporting conflicts at tuple index idx.
func (e *Extender) extendAt(extSch *schema.Schema, ext relation.Tuple, idx int) ([]Conflict, error) {
	if len(ext) != extSch.Arity() {
		return nil, fmt.Errorf("derive: tuple arity %d, schema wants %d", len(ext), extSch.Arity())
	}
	return e.bound(extSch).derive(ext, idx, e.opts)
}

// program is an ILFD set bound to one extended schema: every condition's
// attribute is resolved to its column, and the rules are held in a
// discrimination index — grouped by their canonically smallest
// antecedent condition, so a tuple only examines rules whose indexed
// condition its current values could satisfy (a rule fires only when its
// whole antecedent holds, so any one condition is a sound index key; the
// smallest is chosen so the keying does not depend on how the caller
// ordered the antecedent). ilfd.New normalizes antecedents into sorted
// order, but ILFD values can be constructed as raw literals, so the
// minimum is computed here rather than assumed at position 0. Rules with
// empty antecedents are always candidates; a rule that mentions an
// antecedent attribute the schema lacks can never hold and is a
// candidate for nothing.
type program struct {
	sch    *schema.Schema
	rules  []boundRule // parallel to the ILFD set
	always []int
	// byCol holds, per column (nil where no rule is indexed), the rules
	// by the value their indexed condition requires there, in the form
	// whose == is value.Equal (Value.Canon).
	byCol []map[value.Value][]int
}

// boundRule is one ILFD over column offsets. cons keeps only the
// consequents whose attribute the schema has; dead marks a rule with an
// antecedent attribute the schema lacks.
type boundRule struct {
	ante, cons []boundCond
	dead       bool
}

type boundCond struct {
	col  int
	attr string
	val  value.Value
}

func bind(fs ilfd.Set, sch *schema.Schema) *program {
	p := &program{
		sch:   sch,
		rules: make([]boundRule, len(fs)),
		byCol: make([]map[value.Value][]int, sch.Arity()),
	}
	for fi, f := range fs {
		r := &p.rules[fi]
		for _, c := range f.Consequent {
			if i := sch.Index(c.Attr); i >= 0 {
				r.cons = append(r.cons, boundCond{col: i, attr: c.Attr, val: c.Val})
			}
		}
		if len(f.Antecedent) == 0 {
			p.always = append(p.always, fi)
			continue
		}
		least := f.Antecedent[0]
		for _, c := range f.Antecedent {
			i := sch.Index(c.Attr)
			if i < 0 {
				r.dead = true
				break
			}
			r.ante = append(r.ante, boundCond{col: i, attr: c.Attr, val: c.Val})
			if c.Key() < least.Key() {
				least = c
			}
		}
		if r.dead {
			continue
		}
		col := sch.Index(least.Attr)
		if p.byCol[col] == nil {
			p.byCol[col] = map[value.Value][]int{}
		}
		k := least.Val.Canon()
		p.byCol[col][k] = append(p.byCol[col][k], fi)
	}
	return p
}

// candidates returns, in ascending rule order, the indexes of rules
// whose indexed (canonically smallest) antecedent condition holds in
// ext (plus the empty-antecedent rules). scratch is reused across
// calls.
func (p *program) candidates(ext relation.Tuple, scratch []int) []int {
	out := append(scratch[:0], p.always...)
	for col, rules := range p.byCol {
		// A NULL or a NaN equals nothing, itself included.
		if v := ext[col]; rules != nil && value.Equal(v, v) {
			out = append(out, rules[v.Canon()]...)
		}
	}
	sort.Ints(out)
	return out
}

// holds reports whether the rule's whole antecedent holds in ext.
func (r *boundRule) holds(ext relation.Tuple) bool {
	if r.dead {
		return false
	}
	for _, c := range r.ante {
		if !value.Equal(ext[c.col], c.val) {
			return false
		}
	}
	return true
}

// derivation is the state of one tuple's derivation.
type derivation struct {
	ext  relation.Tuple
	idx  int
	mode Mode
	// cut (FirstMatch) marks, per column, an attribute some rule has set
	// or found set: later rules never touch it. Chaining still happens
	// across rounds because newly set attributes can satisfy other
	// antecedents.
	cut []bool
	// seen (Fixpoint) de-duplicates the conflicts reported.
	seen      map[string]bool
	conflicts []Conflict
}

// fire applies the rule's consequents to the tuple and reports whether
// it changed.
func (d *derivation) fire(r *boundRule) bool {
	changed := false
	for _, c := range r.cons {
		cur := d.ext[c.col]
		if d.mode == FirstMatch {
			if d.cut[c.col] {
				continue
			}
			// A source value already present wins: the prototype's rule
			// order places facts before ILFDs, so cut the attribute
			// either way and no ILFD overrides it.
			d.cut[c.col] = true
			if cur.IsNull() {
				d.ext[c.col] = c.val
				changed = true
			}
			continue
		}
		if cur.IsNull() {
			d.ext[c.col] = c.val
			changed = true
			continue
		}
		if !value.Equal(cur, c.val) {
			k := c.attr + "\x1f" + cur.Key() + "\x1f" + c.val.Key()
			if !d.seen[k] {
				if d.seen == nil {
					d.seen = map[string]bool{}
				}
				d.seen[k] = true
				d.conflicts = append(d.conflicts, Conflict{
					TupleIndex: d.idx, Attr: c.attr, Old: cur, New: c.val,
				})
			}
		}
	}
	return changed
}

// derive fills derivable NULL attributes of ext in place. Only rules
// surfaced by the discrimination index are examined each round, and the
// pruned pass is exactly equivalent to an unindexed in-order pass: when
// a firing changes ext, the candidate list is refreshed and iteration
// resumes just past the fired rule, so rules a mid-round derivation
// enables fire at the same position — and under the same cut state — as
// they would without pruning. (Rules earlier than the firing one wait
// for the next round in both disciplines: the pass already moved past
// them.)
func (p *program) derive(ext relation.Tuple, idx int, opts Options) ([]Conflict, error) {
	d := derivation{ext: ext, idx: idx, mode: opts.Mode}
	switch opts.Mode {
	case FirstMatch:
		d.cut = make([]bool, len(ext))
	case Fixpoint:
	default:
		return nil, fmt.Errorf("derive: unknown mode %v", opts.Mode)
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = len(p.rules) + 1
	}
	var cand []int
	for round := 0; round < maxRounds; round++ {
		changed := false
		cand = p.candidates(ext, cand)
		for k := 0; k < len(cand); {
			fi := cand[k]
			if r := &p.rules[fi]; r.holds(ext) && d.fire(r) {
				changed = true
				cand = p.candidates(ext, cand)
				k = sort.SearchInts(cand, fi+1)
				continue
			}
			k++
		}
		if !changed {
			break
		}
	}
	return d.conflicts, nil
}

// Derivable returns, for each attribute name, whether some ILFD in fs
// has it as a consequent — i.e. whether derivation could ever supply it.
// Used to report which missing extended-key attributes are simply
// unobtainable (they stay NULL for every tuple).
func Derivable(fs ilfd.Set) map[string]bool {
	out := map[string]bool{}
	for _, f := range fs {
		for _, c := range f.Consequent {
			out[c.Attr] = true
		}
	}
	return out
}

// ExtendWithTables derives missing attributes relationally, the §4.2
// formulation: for each ILFD table IM(x̄,y), R_y = Π_{K_R,y}(R ⋈_x̄ IM)
// and the derived values are folded back onto R keyed by K_R (the
// paper's series of outer joins). Chaining across tables is achieved by
// iterating passes until a fixpoint: a county derived by one table can
// feed a later speciality table, reproducing the I9 = I7 ∘ I8 chain.
//
// Semantics match Extend over the tables' expanded ILFDs: in FirstMatch
// mode an attribute set in an earlier pass or by an earlier table is
// never overwritten; in Fixpoint mode a disagreeing derivation is
// reported as a Conflict. Derived-value folding is keyed on the source
// relation's primary key, as in the paper's expressions; tuples whose
// primary key contains NULL cannot be addressed relationally and are
// left for rule-driven derivation.
func ExtendWithTables(rel *relation.Relation, name string, extra []schema.Attribute, tables []*ilfd.Table, opts Options) (*relation.Relation, []Conflict, error) {
	sch := rel.Schema()
	for _, a := range extra {
		if sch.Has(a.Name) {
			return nil, nil, fmt.Errorf("derive: relation %s already has attribute %q", sch.Name(), a.Name)
		}
	}
	extSch, err := sch.Extend(name, extra)
	if err != nil {
		return nil, nil, err
	}
	// Working tuples, NULL-padded.
	work := make([]relation.Tuple, rel.Len())
	for i, t := range rel.Tuples() {
		ext := make(relation.Tuple, extSch.Arity())
		copy(ext, t)
		for j := sch.Arity(); j < extSch.Arity(); j++ {
			ext[j] = value.Null
		}
		work[i] = ext
	}
	// A tuple whose primary key contains NULL cannot be addressed
	// relationally (the paper folds derived values back keyed by K_R) and
	// is left alone. The key is the source's own, which nothing here
	// writes.
	addressable := make([]bool, len(work))
	for i, t := range work {
		addressable[i] = true
		for _, a := range sch.PrimaryKey() {
			addressable[i] = addressable[i] && !t[extSch.Index(a)].IsNull()
		}
	}
	// Each usable table bound once to the offsets of its columns in a
	// working tuple; the table's own key index (its antecedent columns)
	// is what R ⋈_x̄ IM probes.
	type boundTable struct {
		tab  *ilfd.Table
		from []int // antecedent offsets
		y    int   // consequent offset
	}
	var bound []boundTable
	for _, tab := range tables {
		b := boundTable{tab: tab, y: extSch.Index(tab.To())}
		for _, a := range tab.From() {
			b.from = append(b.from, extSch.Index(a))
		}
		if b.y >= 0 && !slices.Contains(b.from, -1) {
			bound = append(bound, b)
		}
	}

	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = len(tables) + 1
	}
	var conflicts []Conflict
	seenConflict := map[string]bool{}
	start := make([]relation.Tuple, len(work))
	for round := 0; round < maxRounds; round++ {
		changed := false
		// R ⋈_x̄ IM reads R as the round found it: a value one table
		// derives feeds another table's antecedent in the next round, not
		// this one.
		for i, t := range work {
			start[i] = append(start[i][:0], t...)
		}
		for _, b := range bound {
			x := make([]value.Value, len(b.from))
			for i, t := range start {
				for n, at := range b.from {
					x[n] = t[at]
				}
				// A NULL antecedent never joins (Lookup refuses it).
				derived, ok := b.tab.Lookup(x...)
				if !ok || !addressable[i] {
					continue
				}
				curVal := work[i][b.y]
				if curVal.IsNull() {
					work[i][b.y] = derived
					changed = true
					continue
				}
				if !value.Equal(curVal, derived) && opts.Mode == Fixpoint {
					ck := fmt.Sprintf("%d\x1f%s\x1f%s\x1f%s", i, b.tab.To(), curVal.Key(), derived.Key())
					if !seenConflict[ck] {
						seenConflict[ck] = true
						conflicts = append(conflicts, Conflict{
							TupleIndex: i, Attr: b.tab.To(), Old: curVal, New: derived,
						})
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	out := relation.New(extSch)
	for _, t := range work {
		if err := out.Insert(t); err != nil {
			return nil, nil, fmt.Errorf("derive: %w", err)
		}
	}
	return out, conflicts, nil
}
