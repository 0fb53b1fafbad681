// The indexed/blocked/word-wise evaluation engine behind Build, Classify
// and the |R|×|S| sweeps: the distinctness rules filed by the constant
// each is pinned on, the probe index of the matching step — positions
// under a hash, every candidate verified with value.Equal against the
// image read in place — and the sweep plan, which lays out one R′
// tuple's verdicts at a time as three column bitsets (verdictRow), word
// by word and in one goroutine. Everything here is an execution strategy
// only: reference.go holds the naive formulation the engine must agree
// with bit-for-bit (pinned by the differential tests), and Config.Naive
// selects it at run time.
package match

import (
	"math/bits"
	"slices"

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
// Identify each arriving tuple, and an image files each row it adopts
// under every index it keeps, so batch and incremental identification
// agree because they are one function over one set of chains.
// Everything is resolved once, in BuildOn. The two-element arrays are
// indexed by side: 0 is R′, 1 is S′.
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
// for it, the one candidate row materialised to run a rule on and the
// pair Identify returns. Whoever serialises a Result's identifications
// (the hub, per pair under its commit lock; the root facade's
// Federation) owns one and hands it to each call; what a call returns in
// it stands until the next call given the same Scratch.
type Scratch struct {
	ext      relation.Tuple
	row      relation.Tuple
	partners []int
	pair     [1]Pair
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

// probe identifies a tuple its side's image (left: R′'s) has extended
// against the opposite side as it stands: the positions there that share
// its non-NULL extended-key projection, ascending, then those an extra
// identity rule pairs it with, each position once. It changes nothing
// but sc, and the tuple need not be in its image (yet). The partners are
// sc's.
func (res *Result) probe(left bool, x *Extended, sc *Scratch) []int {
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
			res.layout(left, x, sc)
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

// Footprint appends to dst the hashes an extended tuple (left: an R′
// tuple) is probed on against the opposite side — its projection onto
// the extended key and onto each blocked identity rule's equality
// attributes, wherever it can join, each tagged with its index pair —
// and reports whether an identity rule scans the opposite side whole.
// Two arrivals on opposite sides can pair each other only if their
// footprints share a hash or a rule scans: a caller that identifies
// several arrivals against the pairing as it stands (a run) holds apart
// any two that could.
func (res *Result) Footprint(dst []uint64, left bool, x *Extended) (_ []uint64, scans bool) {
	px := &res.px
	own, _ := sides(left)
	tag := func(slot int, ix *imageIndex) {
		if k := x.key(ix); k.joins {
			dst = append(dst, k.h+uint64(slot)*0x9e3779b97f4a7c15)
		}
	}
	if ix := px.byKey[own]; ix != nil {
		tag(0, ix)
	}
	for n := range px.rules {
		pr := &px.rules[n]
		switch {
		case pr.scan:
			scans = true
		case pr.blocks[own] != nil:
			tag(n+1, pr.blocks[own])
		}
	}
	return dst, scans
}

// admit adds candidate position j to partners if it is not there and the
// rule pairs the arriving tuple, laid out in sc.ext, with the opposite
// side's tuple j, read into sc.
func (res *Result) admit(pr *probeRule, partners []int, left bool, j int, sc *Scratch) []int {
	if slices.Contains(partners, j) {
		return partners
	}
	rt, st := res.opposite(left, j, sc), sc.ext
	if left {
		rt, st = st, rt
	}
	if !(pr.fwd.Holds(rt, st) || pr.rev.Holds(st, rt)) {
		return partners
	}
	return append(partners, j)
}

// layout returns, in sc, a tuple its side's image (left: R′'s) has
// extended laid out as an R′ (left) or S′ tuple: the row the rules that
// judge a pair read.
func (res *Result) layout(left bool, x *Extended, sc *Scratch) relation.Tuple {
	view := res.SPrime
	if left {
		view = res.RPrime
	}
	sc.ext = view.LayOut(sc.ext, x.row)
	return sc.ext
}

// opposite returns, in sc, tuple j of the side an extended tuple of the
// other (left: an R′ tuple) is identified against — a partner probe
// found, read whole for the rules that judge the pair.
func (res *Result) opposite(left bool, j int, sc *Scratch) relation.Tuple {
	view := res.RPrime
	if left {
		view = res.SPrime
	}
	sc.row = view.TupleInto(sc.row, j)
	return sc.row
}

// Append adds an arriving tuple to its side once the side's relation
// holds it — and, in a run, behind it the later tuples of the run the
// relation took first (behind counts them; one tuple alone passes 0):
// the image adopts it, unless another pairing over the image did
// (Image.adopt, which refuses — with everything as it was — an extension
// not at the image's next row and a relation not exactly behind+1 tuples
// ahead), then the matching table grows its (unmatched) slot in the
// partner array and takes its pairs. The side's candidate keys are not
// looked at: they are the source relation's, which admits the tuple
// before its image is appended here.
func (res *Result) Append(left bool, x *Extended, pairs []Pair, behind int) error {
	own, _ := sides(left)
	if err := res.px.img[own].adopt(x, behind); err != nil {
		return err
	}
	res.MT.grow(res.RPrime.Len(), res.SPrime.Len())
	for _, p := range pairs {
		res.MT.Add(p)
	}
	return nil
}

// sweepPlan is the distinctness rules laid out over the R′×S′ grid for
// the three sweeps. Each rule is two virtual rules, one per orientation
// (bit 2r forward, 2r+1 reversed). A virtual rule's single-side
// predicates are evaluated once per R′ tuple, into the row's survival
// bits, and once per S′ tuple, into the rule's column mask: the columns
// they hold on. A row's verdicts are then word operations over the
// masks (verdictRow), and only the rare cross predicates are evaluated
// cell by cell.
//
// The plan is cached on the Result and grows with the relations: the
// rule-level structure (axis and cross predicates) is fixed per Result,
// and each sweep first files the tuples appended since the last (Append)
// into the survival bits and the masks. A sweep holds Result.planMu from
// that extension to its last row, so the plan and the verdict row it
// lays out are the sweep's alone.
type sweepPlan struct {
	words   int         // words of a row's survival bits
	row     []axisPreds // per virtual rule: predicates reading the R′ tuple
	col     []axisPreds // per virtual rule: predicates reading the S′ tuple
	cross   [][]rules.CompiledPredicate
	rowBits [][]uint64 // [row][word]
	colMask [][]uint64 // [virtual rule][column word]
	cols    int        // the S′ tuples the masks cover
	// verdict is the row verdictRow laid out last, one column bitset per
	// Verdict; rt, st and partners are its scratch.
	verdict  [3][]uint64
	rt, st   relation.Tuple
	partners []int
}

// axisPreds is the single-side predicate set of one virtual rule on one
// grid axis.
type axisPreds struct {
	preds []rules.CompiledPredicate
	side  rules.Side
}

// holds reports whether every predicate of the set holds for t.
func (a axisPreds) holds(t relation.Tuple) bool {
	for _, pr := range a.preds {
		if !pr.HoldsSingle(a.side, t) {
			return false
		}
	}
	return true
}

// newSweepPlan builds the rule-level plan structure with no tuple filed.
func (res *Result) newSweepPlan() *sweepPlan {
	eng := res.engine()
	n := len(eng.fwd)
	nv := 2 * n
	p := &sweepPlan{
		words:   (nv + 63) / 64,
		row:     make([]axisPreds, nv),
		col:     make([]axisPreds, nv),
		cross:   make([][]rules.CompiledPredicate, nv),
		colMask: make([][]uint64, nv),
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

// extend files every tuple the extended relations hold past those the
// plan covers: a row's survival bits, a column's bit in each mask whose
// rule's single-side predicates hold on it. Called with planMu held.
func (p *sweepPlan) extend(res *Result) {
	for i := len(p.rowBits); i < res.RPrime.Len(); i++ {
		p.rt = res.RPrime.TupleInto(p.rt, i)
		alive := make([]uint64, p.words)
		for k, a := range p.row {
			if a.holds(p.rt) {
				alive[k/64] |= 1 << (k % 64)
			}
		}
		p.rowBits = append(p.rowBits, alive)
	}
	cols := res.SPrime.Len()
	words := (cols + 63) / 64
	for k, m := range p.colMask {
		p.colMask[k] = append(m, make([]uint64, words-len(m))...)
	}
	for j := p.cols; j < cols; j++ {
		p.st = res.SPrime.TupleInto(p.st, j)
		for k, a := range p.col {
			if a.holds(p.st) {
				p.colMask[k][j/64] |= 1 << (j % 64)
			}
		}
	}
	p.cols = cols
	for v, row := range p.verdict {
		p.verdict[v] = slices.Grow(row[:0], words)[:words]
	}
}

// verdictRow lays out row i's verdicts over the plan's columns: bit j of
// p.verdict[v] is set when (i, j) is v, as Classify would say. Not
// matching is the OR of the masks of the rules alive on the row that
// have no cross predicate; a rule with one is tried cell by cell on the
// columns of its mask not already set. The row's matching-table partners
// win over that, and undetermined is the rest.
func (p *sweepPlan) verdictRow(res *Result, i int) {
	not, matched, und := p.verdict[NotMatching], p.verdict[Matching], p.verdict[Undetermined]
	clear(not)
	clear(matched)
	rb := p.rowBits[i]
	alive := func(yield func(k int) bool) {
		for w, word := range rb {
			for ; word != 0; word &= word - 1 {
				if !yield(w*64 + bits.TrailingZeros64(word)) {
					return
				}
			}
		}
	}
	for k := range alive {
		if len(p.cross[k]) == 0 {
			m := p.colMask[k][:len(not)]
			for w := range not {
				not[w] |= m[w]
			}
		}
	}
	read := false
	for k := range alive {
		cross := p.cross[k]
		if len(cross) == 0 {
			continue
		}
		if !read {
			p.rt, read = res.RPrime.TupleInto(p.rt, i), true
		}
		for w, m := range p.colMask[k] {
			for open := m &^ not[w]; open != 0; open &= open - 1 {
				j := w*64 + bits.TrailingZeros64(open)
				p.st = res.SPrime.TupleInto(p.st, j)
				t1, t2 := p.rt, p.st
				if k%2 == 1 {
					t1, t2 = t2, t1
				}
				if allHold(cross, t1, t2) {
					not[w] |= 1 << (j % 64)
				}
			}
		}
	}
	p.partners = res.MT.MatchesOfR(p.partners[:0], i)
	for _, j := range p.partners {
		if j < p.cols {
			matched[j/64] |= 1 << (j % 64)
		}
	}
	for w := range und {
		not[w] &^= matched[w]
		und[w] = ^(not[w] | matched[w])
	}
	if tail := p.cols % 64; tail != 0 {
		und[len(und)-1] &= 1<<tail - 1
	}
}

// allHold reports whether every predicate holds for (t1, t2).
func allHold(preds []rules.CompiledPredicate, t1, t2 relation.Tuple) bool {
	for _, pr := range preds {
		if !pr.Holds(t1, t2) {
			return false
		}
	}
	return true
}

// sweep extends the cached plan over every tuple the extended relations
// hold, then lays out each row's verdicts in turn and hands the plan to
// visit, in row order, until it returns false. It holds planMu
// throughout.
func (res *Result) sweep(visit func(i int, p *sweepPlan) bool) {
	res.planMu.Lock()
	defer res.planMu.Unlock()
	if res.plan == nil {
		res.plan = res.newSweepPlan()
	}
	p := res.plan
	p.extend(res)
	for i := range p.rowBits {
		p.verdictRow(res, i)
		if !visit(i, p) {
			return
		}
	}
}

// sweepCounts tallies the Figure 3 partition: each row's verdicts
// counted by popcount.
func (res *Result) sweepCounts() (matching, notMatching, undetermined int) {
	var n [3]int
	res.sweep(func(_ int, p *sweepPlan) bool {
		for v, row := range p.verdict {
			for _, w := range row {
				n[v] += bits.OnesCount64(w)
			}
		}
		return true
	})
	return n[Matching], n[NotMatching], n[Undetermined]
}

// sweepPairs enumerates the grid's pairs with the given verdict in
// row-major order, up to limit of them (limit <= 0: all).
func (res *Result) sweepPairs(want Verdict, limit int) []Pair {
	var out []Pair
	res.sweep(func(i int, p *sweepPlan) bool {
		for w, word := range p.verdict[want] {
			for ; word != 0; word &= word - 1 {
				out = append(out, Pair{RIndex: i, SIndex: w*64 + bits.TrailingZeros64(word)})
				if len(out) == limit {
					return false
				}
			}
		}
		return true
	})
	return out
}
