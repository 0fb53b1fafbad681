// The indexed/blocked/parallel evaluation engine behind Build, Classify
// and the |R|×|S| sweeps: the distinctness rules filed by the constant
// each is pinned on, the probe index of the matching step — positions
// under a hash, every candidate verified with value.Equal against the
// image read in place — and the sweep plan, which walks R′ and S′
// (views over the source relations) through per-worker scratch rows.
// Everything here is an execution strategy only:
// reference.go holds the naive formulation the engine must agree with
// bit-for-bit (pinned by the differential tests), and Config.Naive
// selects it at run time.
package match

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// engine holds the distinctness rules compiled against the R′/S′
// schemas, in both (e1, e2) orientations: the rules range over all
// entity pairs, so (r, s) instantiates either (e1=r, e2=s) or
// (e1=s, e2=r) — Table 4 of the paper needs the second orientation (the
// Mughalai tuple lives in S). A rule in one orientation is a virtual
// rule: rule i forward is 2i, reversed 2i+1.
//
// One pair's check does not walk them. Nearly every rule is a Prop.-1
// rule, pinned by "attribute = constant" to pairs one of whose tuples
// holds that constant in that column (rules.Pin), so each virtual rule is
// filed under its pin and a pair's candidates are looked up by the
// values its two tuples hold; the few rules with no such predicate stay
// in a list that is walked. Candidates get the full conjunction, and the
// answer is what the walk over every rule gives: the first rule, in
// declaration order, that fires in either orientation.
type engine struct {
	fwd []rules.CompiledDistinctnessRule // e1 ← R′ tuple, e2 ← S′ tuple
	rev []rules.CompiledDistinctnessRule // e1 ← S′ tuple, e2 ← R′ tuple
	// slots are the (tuple, column) places some virtual rule is pinned on;
	// unpinned the virtual rules with no pin, ascending.
	slots    []pinSlot
	unpinned []int
}

// pinSlot is one column of one of the pair's two tuples, and the virtual
// rules pinned there by the constant each requires (in the form whose ==
// is value.Equal), ascending.
type pinSlot struct {
	sPrime  bool // reads the S′ tuple, else the R′ tuple
	col     int
	byConst map[value.Value][]int
}

// engine compiles the distinctness rules once per Result.
func (res *Result) engine() *engine {
	res.engOnce.Do(func() {
		e := &engine{
			fwd: make([]rules.CompiledDistinctnessRule, len(res.distinct)),
			rev: make([]rules.CompiledDistinctnessRule, len(res.distinct)),
		}
		rs, ss := res.RPrime.Schema(), res.SPrime.Schema()
		for i, d := range res.distinct {
			e.fwd[i] = d.Compile(rs, ss)
			e.rev[i] = d.Compile(ss, rs)
			e.file(2*i, e.fwd[i], false)
			e.file(2*i+1, e.rev[i], true)
		}
		res.eng = e
	})
	return res.eng
}

// file puts virtual rule v under its pin. reversed says the rule's e1
// is the S′ tuple. A rule no pair can meet is filed nowhere.
func (e *engine) file(v int, rule rules.CompiledDistinctnessRule, reversed bool) {
	pin, pinned := rule.Pin()
	if !pinned {
		e.unpinned = append(e.unpinned, v)
		return
	}
	if pin.Col < 0 {
		return
	}
	sPrime := pin.E2 != reversed
	at := slices.IndexFunc(e.slots, func(s pinSlot) bool { return s.sPrime == sPrime && s.col == pin.Col })
	if at < 0 {
		at = len(e.slots)
		e.slots = append(e.slots, pinSlot{sPrime: sPrime, col: pin.Col, byConst: map[value.Value][]int{}})
	}
	k := pin.Val.Canon()
	e.slots[at].byConst[k] = append(e.slots[at].byConst[k], v)
}

// distinctFires reports whether any rule declares (rt, st) distinct in
// either orientation.
func (e *engine) distinctFires(rt, st relation.Tuple) bool {
	_, fires := e.distinctFiresNamed(rt, st)
	return fires
}

// distinctFiresNamed additionally reports the name of the first firing
// rule, in declaration order (for Verify's violation message, which must
// match the reference path).
func (e *engine) distinctFiresNamed(rt, st relation.Tuple) (string, bool) {
	first := len(e.fwd) // the lowest rule found firing so far
	// try evaluates an ascending candidate list up to the first rule that
	// fires, or that could not lower first.
	try := func(vs []int) {
		for _, v := range vs {
			switch {
			case v/2 >= first:
				return
			case v%2 == 0 && e.fwd[v/2].Holds(rt, st), v%2 == 1 && e.rev[v/2].Holds(st, rt):
				first = v / 2
				return
			}
		}
	}
	for i := range e.slots {
		s := &e.slots[i]
		t := rt
		if s.sPrime {
			t = st
		}
		// A NULL or a NaN equals no constant.
		if s.col < len(t) && value.Equal(t[s.col], t[s.col]) {
			try(s.byConst[t[s.col].Canon()])
		}
	}
	try(e.unpinned)
	if first == len(e.fwd) {
		return "", false
	}
	return e.fwd[first].Name, true
}

// probe is the matching step — §4.2's join of R′ and S′ on identical
// non-NULL extended-key values, plus §3.2's extra identity rules — over
// indexes the two images keep. BuildOn probes every R′ tuple with it and
// incremental maintenance (the federate package) each arriving tuple,
// and an image files each row it adopts under every index it keeps, so
// batch and incremental identification agree because they are one
// function over one set of chains. Everything is resolved once, in
// BuildOn. The two-element arrays are indexed by side: 0 is R′, 1 is S′.
//
// An index here is a relation.PosIndex over an image: positions filed
// under a hash of the projection, no key kept. Filing under one hash
// stands for nothing; the probe verifies every position a chain hands
// out with value.Equal on every column, read from the image in place
// (relation.At), so a partner is a partner by comparison — a NULL or a
// NaN equals nothing, itself included, and is neither filed nor looked
// up.
type probe struct {
	img [2]*Image
	// byKey are the indexes by extended-key projection; both nil when a
	// side's image lacks an attribute of the key — the side holds NULL
	// there in every tuple, and nothing joins.
	byKey [2]*imageIndex
	rules []probeRule
}

// probeRule is one extra identity rule prepared for probing. Its
// cross-equality attributes (e1.A = e2.A predicates — §3.2
// well-formedness guarantees every matched pair agrees, non-NULL, on
// them) block both sides into hash chains, and only a chain's verified
// candidates get the full conjunction, in both orientations. Cross
// equality is symmetric in the two sides, so one projection serves both.
type probeRule struct {
	// scan marks a rule with no cross equality (every attribute is pinned
	// by constants): its candidates are the whole opposite side.
	scan bool
	// blocks are the indexes by equality projection, both nil under scan
	// and for a rule with an equality attribute one side holds NULL in
	// every tuple of — its R′ or S′ lacks the attribute, or nothing fills
	// it in the image: e1.a = e2.a cannot hold, and the rule has no
	// candidates at all.
	blocks [2]*imageIndex
	// fwd / rev are the rule compiled in both orientations (e1 ← R′,
	// e2 ← S′ and the reverse).
	fwd, rev rules.CompiledIdentityRule
}

// projKey is one projection's hash; joins is false when the projection
// cannot join (it holds a NULL or a NaN).
type projKey struct {
	h     uint64
	joins bool
}

// Scratch is the working memory of one identification at a time: the
// arriving tuple laid out in its R′ or S′ columns, the partners found
// for it and the one candidate row materialised to run a rule on.
// Whoever serialises a Result's identifications (a federation, under its
// coordinator's commit lock) owns one and hands it to each call; what a
// call returns in it stands until the next call given the same Scratch.
type Scratch struct {
	ext      relation.Tuple
	row      relation.Tuple
	partners []int
}

// sides maps a tuple's side to the probe's array indexes: the side it
// joins and the side it is identified against.
func sides(left bool) (own, other int) {
	if left {
		return 0, 1
	}
	return 1, 0
}

// offsets resolves attribute names to column offsets in sch; ok is false
// when sch lacks one.
func offsets(sch *schema.Schema, attrs []string) (pos []int, ok bool) {
	pos = make([]int, len(attrs))
	for n, a := range attrs {
		if pos[n] = sch.Index(a); pos[n] < 0 {
			return nil, false
		}
	}
	return pos, true
}

// indexPair returns the two images' indexes over attrs, made or shared,
// or nils when either image lacks one of attrs: that side's R′ or S′
// lacks it, or holds NULL there in every row.
func (res *Result) indexPair(attrs []string) [2]*imageIndex {
	var cols [2][]int
	for n, im := range res.px.img {
		var ok bool
		if cols[n], ok = offsets(im.sch, attrs); !ok {
			return [2]*imageIndex{}
		}
	}
	return [2]*imageIndex{res.px.img[0].index(cols[0]), res.px.img[1].index(cols[1])}
}

// newProbe resolves res's matching step over the images r and s:
// the extended-key indexes, and per identity rule its classification,
// blocks and compiled forms.
func (res *Result) newProbe(r, s *Image, identity []rules.IdentityRule) {
	px := &res.px
	px.img = [2]*Image{r, s}
	px.byKey = res.indexPair(res.extKey)
	px.rules = make([]probeRule, len(identity))
	rs, ss := res.RPrime.Schema(), res.SPrime.Schema()
	for n, rule := range identity {
		pr := &px.rules[n]
		pr.fwd, pr.rev = rule.Compile(rs, ss), rule.Compile(ss, rs)
		eq := rule.EqualityAttrs()
		if pr.scan = len(eq) == 0; !pr.scan {
			pr.blocks = res.indexPair(eq)
		}
	}
}

// projection hashes t's projection onto the column offsets idx (at least
// one), unless it cannot join: a NULL or a NaN equals nothing, itself
// included. Every index hashes alike, so ix is any of them.
func projection(ix *relation.PosIndex, t relation.Tuple, idx []int) projKey {
	for _, i := range idx {
		if v := t[i]; !value.Equal(v, v) {
			return projKey{}
		}
	}
	return projKey{h: ix.Hash(t, idx), joins: true}
}

// joined appends to out, ascending, the positions theirs — an index over
// rel, the opposite image — files under h whose projection is Equal,
// column by column, to row's onto ours.
func joined(out []int, theirs *imageIndex, h uint64, rel *relation.Relation, row relation.Tuple, ours *imageIndex) []int {
	base := len(out)
chain:
	for pos := theirs.ix.Last(h); pos >= 0; pos = theirs.ix.Prev(pos) {
		for n, c := range theirs.cols {
			if !value.Equal(rel.At(pos, c), row[ours.cols[n]]) {
				continue chain
			}
		}
		out = append(out, pos)
	}
	slices.Reverse(out[base:])
	return out
}

// Probe identifies a tuple its side's image (left: R′'s) has extended
// against the opposite side as it stands: the positions there that share
// its non-NULL extended-key projection, ascending, then those an extra
// identity rule pairs it with, each position once. It changes nothing
// but sc, and the tuple need not be in its image (yet). The partners are
// sc's.
func (res *Result) Probe(left bool, x *Extended, sc *Scratch) []int {
	px := &res.px
	own, other := sides(left)
	opposite := px.img[other].rel
	partners := sc.partners[:0]
	if ix := px.byKey; ix[own] != nil {
		if k := x.key(ix[own]); k.joins {
			partners = joined(partners, ix[other], k.h, opposite, x.row, ix[own])
		}
	}
	laid := false
	for n := range px.rules {
		pr := &px.rules[n]
		var cands []int
		switch {
		case pr.scan:
		case pr.blocks[own] == nil:
			continue
		default:
			k := x.key(pr.blocks[own])
			if !k.joins {
				continue
			}
			// The block's candidates are gathered past the partners and
			// admitted back over themselves: one is read before the slot it
			// may be admitted into is written.
			found := len(partners)
			cands = joined(partners, pr.blocks[other], k.h, opposite, x.row, pr.blocks[own])[found:]
		}
		if !laid {
			res.Layout(left, x, sc)
			laid = true
		}
		if pr.scan {
			for j := range opposite.Len() {
				partners = res.admit(pr, partners, left, j, sc)
			}
			continue
		}
		for _, j := range cands {
			partners = res.admit(pr, partners, left, j, sc)
		}
	}
	sc.partners = partners
	return partners
}

// admit adds candidate position j to partners if it is not there and the
// rule pairs the arriving tuple, laid out in sc.ext, with the opposite
// side's tuple j, read into sc.
func (res *Result) admit(pr *probeRule, partners []int, left bool, j int, sc *Scratch) []int {
	if slices.Contains(partners, j) {
		return partners
	}
	rt, st := res.Opposite(left, j, sc), sc.ext
	if left {
		rt, st = st, rt
	}
	if !(pr.fwd.Holds(rt, st) || pr.rev.Holds(st, rt)) {
		return partners
	}
	return append(partners, j)
}

// Layout returns, in sc, a tuple its side's image (left: R′'s) has
// extended laid out as an R′ (left) or S′ tuple: the row the rules that
// judge a pair read.
func (res *Result) Layout(left bool, x *Extended, sc *Scratch) relation.Tuple {
	view := res.SPrime
	if left {
		view = res.RPrime
	}
	sc.ext = view.LayOut(sc.ext, x.row)
	return sc.ext
}

// Opposite returns, in sc, tuple j of the side an extended tuple of the
// other (left: an R′ tuple) is identified against — a partner Probe
// found, read whole for the rules that judge the pair.
func (res *Result) Opposite(left bool, j int, sc *Scratch) relation.Tuple {
	view := res.RPrime
	if left {
		view = res.SPrime
	}
	sc.row = view.TupleInto(sc.row, j)
	return sc.row
}

// Append adds an arriving tuple to its side once the side's relation
// holds it: the image adopts it, unless another pairing over the image
// did (Image.adopt, which refuses — with everything as it was — an
// extension the image has outgrown and a relation not exactly one tuple
// ahead), then the matching table grows its (unmatched) slot in the
// partner array and takes its pairs. The side's candidate keys are not
// looked at: they are the source relation's, which admits the tuple
// before its image is appended here.
func (res *Result) Append(left bool, x *Extended, pairs []Pair) error {
	own, _ := sides(left)
	if err := res.px.img[own].adopt(x); err != nil {
		return err
	}
	res.MT.grow(res.RPrime.Len(), res.SPrime.Len())
	for _, p := range pairs {
		res.MT.Add(p)
	}
	return nil
}

// sweepPlan is the evaluation plan for the distinctness rules over the
// R′×S′ grid. Each rule contributes two virtual rules (one per
// orientation: bit 2r forward, bit 2r+1 reverse); a virtual rule's
// single-side predicates are evaluated once per row and once per column
// into survival bitsets, so the per-cell test collapses to a bitset
// AND, with the (rare) cross predicates evaluated only for virtual
// rules surviving on both axes.
//
// The plan is cached on the Result and extended incrementally: the
// rule-level structure (words, axis predicates, cross predicates) is
// fixed per Result, and only the per-tuple survival bitsets grow as the
// relations grow between sweeps (federate inserts). Extension appends
// bitsets for the new tuples under Result.planMu; sweeps work on a
// value snapshot of the plan, so a concurrent later extension cannot
// touch the rows a running sweep reads.
type sweepPlan struct {
	words   int
	row     []axisPreds // per virtual rule: predicates reading the R′ tuple
	col     []axisPreds // per virtual rule: predicates reading the S′ tuple
	rowBits [][]uint64  // [row][word]
	colBits [][]uint64  // [col][word]
	cross   [][]rules.CompiledPredicate
}

// axisPreds is the single-side predicate set of one virtual rule on one
// grid axis.
type axisPreds struct {
	preds []rules.CompiledPredicate
	side  rules.Side
}

// newSweepPlan builds the rule-level plan structure with empty bitsets.
func (res *Result) newSweepPlan() *sweepPlan {
	eng := res.engine()
	n := len(eng.fwd)
	nv := 2 * n
	p := &sweepPlan{
		words: (nv + 63) / 64,
		row:   make([]axisPreds, nv),
		col:   make([]axisPreds, nv),
		cross: make([][]rules.CompiledPredicate, nv),
	}
	for r := 0; r < n; r++ {
		// Forward orientation: e1 ← R′ tuple (row), e2 ← S′ tuple (col).
		f1, f2, fc := eng.fwd[r].SidePredicates()
		p.row[2*r], p.col[2*r], p.cross[2*r] = axisPreds{f1, rules.E1}, axisPreds{f2, rules.E2}, fc
		// Reverse orientation: e1 ← S′ tuple (col), e2 ← R′ tuple (row).
		r1, r2, rc := eng.rev[r].SidePredicates()
		p.row[2*r+1], p.col[2*r+1], p.cross[2*r+1] = axisPreds{r2, rules.E2}, axisPreds{r1, rules.E1}, rc
	}
	return p
}

// bitsFor evaluates one tuple's single-side survival bitset.
func (p *sweepPlan) bitsFor(t relation.Tuple, axis []axisPreds) []uint64 {
	bits := make([]uint64, p.words)
vrule:
	for k, a := range axis {
		for _, pr := range a.preds {
			if !pr.HoldsSingle(a.side, t) {
				continue vrule
			}
		}
		bits[k/64] |= 1 << (k % 64)
	}
	return bits
}

// sweepPlanSnapshot returns the cached plan extended to cover every
// tuple currently in the extended relations. The returned value's
// bitset slice headers are private to the caller: later extensions
// append under planMu and never mutate entries below the snapshot's
// length.
func (res *Result) sweepPlanSnapshot() sweepPlan {
	res.planMu.Lock()
	defer res.planMu.Unlock()
	if res.plan == nil {
		res.plan = res.newSweepPlan()
	}
	p := res.plan
	var row relation.Tuple
	for i := len(p.rowBits); i < res.RPrime.Len(); i++ {
		row = res.RPrime.TupleInto(row, i)
		p.rowBits = append(p.rowBits, p.bitsFor(row, p.row))
	}
	for j := len(p.colBits); j < res.SPrime.Len(); j++ {
		row = res.SPrime.TupleInto(row, j)
		p.colBits = append(p.colBits, p.bitsFor(row, p.col))
	}
	return *p
}

// sweepRows is one sweep worker's pair of scratch rows: a cell's two
// tuples are read into them only when a cross predicate needs them, the
// R′ one once per row.
type sweepRows struct {
	rt, st relation.Tuple
	i      int // the row rt holds, -1 for none
}

// fires reports whether some distinctness rule declares cell (i, j)
// distinct, using the precomputed survival bitsets.
func (p *sweepPlan) fires(res *Result, i, j int, rows *sweepRows) bool {
	rb, cb := p.rowBits[i], p.colBits[j]
	for w := 0; w < p.words; w++ {
		live := rb[w] & cb[w]
		for live != 0 {
			k := w*64 + bits.TrailingZeros64(live)
			live &= live - 1
			cross := p.cross[k]
			if len(cross) == 0 {
				return true
			}
			if rows.i != i {
				rows.rt, rows.i = res.RPrime.TupleInto(rows.rt, i), i
			}
			rows.st = res.SPrime.TupleInto(rows.st, j)
			rt, st := rows.rt, rows.st
			t1, t2 := rt, st
			if k%2 == 1 {
				t1, t2 = st, rt
			}
			ok := true
			for _, pr := range cross {
				if !pr.Holds(t1, t2) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
	}
	return false
}

// sweepRow classifies every cell of row i in column order, invoking
// visit per cell until it returns false. Membership is the matching
// table's partner array: one comparison per cell.
func (res *Result) sweepRow(plan *sweepPlan, rows *sweepRows, i, cols int, visit func(j int, v Verdict) bool) {
	for j := 0; j < cols; j++ {
		var v Verdict
		switch {
		case res.MT.Contains(i, j):
			v = Matching
		case plan.fires(res, i, j, rows):
			v = NotMatching
		default:
			v = Undetermined
		}
		if !visit(j, v) {
			return
		}
	}
}

// sweepGrain is the number of grid rows a worker claims at a time.
const sweepGrain = 16

// workerCount sizes the pool for a grid of the given row count:
// GOMAXPROCS (so operator limits are respected) capped by the number of
// row blocks.
func workerCount(rows int) int {
	w := runtime.GOMAXPROCS(0)
	if blocks := (rows + sweepGrain - 1) / sweepGrain; w > blocks {
		w = blocks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelCounts tallies the Figure 3 partition with the grid's rows
// sharded across a worker pool. Tallies are additive, so the merge
// order cannot affect the result.
func (res *Result) parallelCounts() (matching, notMatching, undetermined int) {
	rows, cols := res.RPrime.Len(), res.SPrime.Len()
	if rows == 0 || cols == 0 {
		return 0, 0, 0
	}
	plan := res.sweepPlanSnapshot()
	workers := workerCount(rows)
	type tally struct{ m, n, u int }
	tallies := make([]tally, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var t tally
			scratch := sweepRows{i: -1}
			for {
				lo := int(next.Add(sweepGrain)) - sweepGrain
				if lo >= rows {
					break
				}
				for i := lo; i < min(lo+sweepGrain, rows); i++ {
					res.sweepRow(&plan, &scratch, i, cols, func(_ int, v Verdict) bool {
						switch v {
						case Matching:
							t.m++
						case NotMatching:
							t.n++
						default:
							t.u++
						}
						return true
					})
				}
			}
			tallies[w] = t
		}(w)
	}
	wg.Wait()
	for _, t := range tallies {
		matching += t.m
		notMatching += t.n
		undetermined += t.u
	}
	return matching, notMatching, undetermined
}

// parallelSweep enumerates grid pairs with the given verdict in
// row-major order. An unlimited sweep (limit <= 0) shards contiguous
// row blocks across a worker pool and concatenates block results in
// block order, so the output is identical to the sequential
// enumeration. A limited sweep walks the grid in order with early
// exit instead — still through the sweep plan, but without
// classifying cells past the limit the way full-grid sharding would.
func (res *Result) parallelSweep(want Verdict, limit int) []Pair {
	rows, cols := res.RPrime.Len(), res.SPrime.Len()
	if rows == 0 || cols == 0 {
		return nil
	}
	plan := res.sweepPlanSnapshot()
	if limit > 0 {
		var out []Pair
		scratch := sweepRows{i: -1}
		for i := 0; i < rows && len(out) < limit; i++ {
			res.sweepRow(&plan, &scratch, i, cols, func(j int, v Verdict) bool {
				if v == want {
					out = append(out, Pair{RIndex: i, SIndex: j})
				}
				return len(out) < limit
			})
		}
		return out
	}
	blocks := (rows + sweepGrain - 1) / sweepGrain
	results := make([][]Pair, blocks)
	workers := workerCount(rows)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := sweepRows{i: -1}
			for {
				b := int(next.Add(1)) - 1
				if b >= blocks {
					break
				}
				lo, hi := b*sweepGrain, min((b+1)*sweepGrain, rows)
				var out []Pair
				for i := lo; i < hi; i++ {
					res.sweepRow(&plan, &scratch, i, cols, func(j int, v Verdict) bool {
						if v == want {
							out = append(out, Pair{RIndex: i, SIndex: j})
						}
						return true
					})
				}
				results[b] = out
			}
		}()
	}
	wg.Wait()
	var out []Pair
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}
