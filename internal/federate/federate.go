// Package federate implements virtual database integration (§1, §2):
// the component relations stay live and autonomous, and entity
// identification is maintained incrementally as tuples arrive — "in the
// case of federated databases … instance integration may have to be
// performed whenever updating is done on the participating databases"
// (§2), and the paper's conclusion makes query-time identification the
// ongoing-work item this package closes.
//
// A Federation holds the current matching state and supports:
//
//   - InsertR / InsertS: O(1 + candidates) incremental identification of
//     the new tuple against the opposite extended relation, with the
//     §3.2 uniqueness and consistency constraints enforced as insertion
//     guards (a violating insert is rejected and rolled back, the way a
//     database rejects a key violation);
//   - PrepareAdmitted + Pending.Commit: the same identification split
//     into a side-effect-free phase and an infallible apply phase, so
//     multi-federation coordinators (the hub package) can prepare an
//     insert against several pairwise states and commit all of them or
//     none — the one way in, which InsertR / InsertS run too;
//   - AddILFD: monotone knowledge growth — the state is rebuilt and the
//     §3.3 monotonicity property is asserted: every previously matched
//     pair must survive;
//   - Result: the current match result, whose Integrated method is the
//     integrated view for query processing.
//
// Equivalence with batch identification (match.Build on the final
// relations) is the package's central invariant, and it holds by
// construction at both steps. Extension: the new tuple's image comes
// from match.Image.Extend — the step Build runs over every tuple of a
// side, on the image Build made of it — and R′/S′ are views of the
// images. Matching: its partners come from match.Result.Probe — the
// extended-key chain and, per extra identity rule, the hash block (or,
// for a rule with no usable equality, the scan), every candidate
// verified by comparison — which is the function Build gives every R′
// tuple, over the indexes the images keep; Commit has the image adopt the
// tuple through match.Result.Append. The federation builds no relation,
// no schema and no index, and compiles no rule. What is its own: the
// §3.2 insertion guards, the two-phase protocol with its generation and
// one-ahead checks, monotone rebuild (AddILFD) and the adoption of a
// recorded commit order by a rebuilt table (Reorder). A coordinator
// whose pairs of a source agree on what fills it builds them on one
// image (NewOn), extends an arriving tuple once and prepares each pair
// from that one extension (PrepareExtended); the first pair to commit
// has the image adopt it.
//
// Ownership: a Federation is a view over two relations it is lent
// (Config.R and Config.S), not an owner of copies. The lender owns the
// tuples and guards their candidate keys; the federation owns only what
// it derives from them — the match.Result: the two images with their
// probe indexes (shared, under NewOn, with the coordinator's other pairs)
// and the matching table. An image is an image relation over the lent
// one: row i is the lent relation's tuple i, read where it lies, plus the
// cells the ILFDs derived for it — all a commit keeps of the extension
// its prepare made — under no key index of its own: the lent relation's
// index is the only one, its Admit the only key guard. The extension
// PrepareAdmitted makes, the partners a prepare finds and the one partner
// row it reads whole live in scratch the federation owns: one prepared
// insert at a time, and a later prepare voids an earlier Pending.
// InsertR/InsertS insert into the lent relation on the caller's behalf; a
// coordinator that uses Prepare + Commit inserts the tuple into the lent
// relation itself, exactly once, between the two (the hub does, under its
// own locks), and Commit fails closed if it did not. Every prepare starts
// from the lent relation's admission of the tuple (relation.Admit: shape
// and keys, checked once), so no pair checks the shape again and a key
// the lender refuses never reaches a federation.
package federate

import (
	"fmt"
	"sort"

	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/relation"
)

// Federation is a live, incrementally maintained identification state.
type Federation struct {
	cfg match.Config
	// res is the batch result of the last rebuild, grown since by every
	// commit; the extenders and the matching step's index are its own.
	res *match.Result
	// gen counts state mutations (commits and rebuilds); a Pending
	// prepared at one generation refuses to commit at another.
	gen uint64
	// sc and ext are what the one prepared insert at a time works in —
	// ext[0] an arrival at R, ext[1] one at S, extended by its side's
	// image — and prepares counts them: a Pending whose scratch a later
	// prepare has taken refuses to commit.
	sc       match.Scratch
	ext      [2]match.Extended
	prepares uint64
}

// ErrUniqueness and ErrConsistency mark a prepare rejected by a §3.2
// insertion guard: the tuple would match several tuples at once or one
// that is already matched, or a distinctness rule forbids the pair it
// would form — match's own two, so one errors.Is classifies a guard's
// rejection and a Verify failure alike.
var (
	ErrUniqueness  = match.ErrUniqueness
	ErrConsistency = match.ErrConsistency
)

// guardError is a guard's rejection: the message, and the sentinel it
// unwraps to.
type guardError struct {
	error
	guard error
}

func (e guardError) Unwrap() error { return e.guard }

// New builds the initial state from a configuration; the initial
// matching table must verify (fail-closed like System.Identify). The
// federation borrows cfg.R and cfg.S: it reads them here and on every
// rebuild, and a caller that wants them left alone by InsertR/InsertS
// passes clones.
func New(cfg match.Config) (*Federation, error) {
	return NewOn(cfg, nil, nil)
}

// NewOn is New over images a coordinator shares between the pairs of a
// source (match.BuildOn): r of cfg's R and s of its S, each under the
// knowledge cfg gives its side; nil images make New's own. The
// coordinator extends an arriving tuple once per image and prepares every
// pair over it from the one extension (PrepareExtended). On a failure
// the indexes the build made on the images are given back.
func NewOn(cfg match.Config, r, s *match.Image) (*Federation, error) {
	res, err := build(cfg, r, s)
	if err != nil {
		return nil, err
	}
	return &Federation{cfg: cfg, res: res, gen: 1}, nil
}

// build runs batch identification, on r and s if given, and verifies it.
func build(cfg match.Config, r, s *match.Image) (*match.Result, error) {
	var res *match.Result
	var err error
	if r != nil && s != nil {
		res, err = match.BuildOn(cfg, r, s)
	} else {
		res, err = match.Build(cfg)
	}
	if err != nil {
		return nil, err
	}
	if err := res.Verify(); err != nil {
		res.Release()
		return nil, fmt.Errorf("federate: %w", err)
	}
	return res, nil
}

// rebuild runs batch identification on images of its own: knowledge
// that grew is a side's own.
func (f *Federation) rebuild() error {
	res, err := build(f.cfg, nil, nil)
	if err != nil {
		return err
	}
	f.res = res
	f.gen++
	return nil
}

// Result returns the current match result (shared; do not mutate).
func (f *Federation) Result() *match.Result { return f.res }

// MT returns the current matching table.
func (f *Federation) MT() *match.Table { return f.res.MT }

// InsertR adds a tuple to the lent relation R, identifies it
// incrementally, and returns the pairs it produced (at most one, by
// uniqueness). The insert is rejected — with the federation and R
// unchanged — if it would make the matching table unsound (uniqueness
// or consistency violation) or violate R's candidate keys.
func (f *Federation) InsertR(t relation.Tuple) ([]match.Pair, error) {
	return f.insert(t, true)
}

// InsertS is InsertR for relation S.
func (f *Federation) InsertS(t relation.Tuple) ([]match.Pair, error) {
	return f.insert(t, false)
}

// insert is the coordinator protocol run stand-alone: the lent relation
// admits the tuple (its shape and keys are checked here, once), the
// federation prepares from the admission, the tuple goes in, commit.
func (f *Federation) insert(t relation.Tuple, left bool) ([]match.Pair, error) {
	base := f.base(left)
	a, err := base.Admit(t)
	if err != nil {
		return nil, fmt.Errorf("federate: %w", err)
	}
	p, err := f.PrepareAdmitted(left, a)
	if err != nil {
		return nil, err
	}
	if err := base.InsertAdmitted(a); err != nil {
		return nil, fmt.Errorf("federate: %w", err)
	}
	return p.Commit()
}

// base returns the lent relation of one side.
func (f *Federation) base(left bool) *relation.Relation {
	if left {
		return f.cfg.R
	}
	return f.cfg.S
}

// Pending is a prepared, not yet applied insert: the new tuple has been
// extended by its side's image — into an Extended the preparer owns,
// until its next extension — and identified against the current state
// without mutating anything. The caller then inserts the tuple into the
// lent relation — whose shape and candidate-key checks, made at
// admission, are the lender's — and Commit applies the federation's
// half. A Pending is invalidated by any intervening mutation of the
// federation; coordinators must serialise prepare→commit windows per
// federation (Commit re-checks and fails on a stale Pending rather than
// corrupting state).
type Pending struct {
	f    *Federation
	left bool
	// x is the extended tuple, xseq the extension it held at prepare.
	x    *match.Extended
	xseq uint64
	// pairs are the matching pairs the commit will add — none, or the one
	// held in `one`; the new tuple's index is its side's pre-commit
	// length. atGen is the federation generation the prepare ran against,
	// nth its place among the federation's prepares.
	pairs []match.Pair
	one   [1]match.Pair
	atGen uint64
	nth   uint64
	done  bool
}

// Pairs returns the matching pairs the commit will add — at most one, by
// uniqueness; the new tuple's index is the side's pre-commit length.
// The slice is shared with the Pending; callers must not mutate it.
func (p *Pending) Pairs() []match.Pair { return p.pairs }

// PrepareAdmitted identifies a tuple the lent relation R (left) or S has
// admitted without mutating the federation: its side's image extends it
// and the pairing probes it, and the §3.2 guards run. The returned
// Pending reports the pairs the insert will produce and commits the
// insert on demand. The shape the relation checked is not checked again,
// here or in any other pair the coordinator prepares the same admission
// against; an admission some other relation gave is refused.
func (f *Federation) PrepareAdmitted(left bool, a relation.Admission) (*Pending, error) {
	if !a.By(f.base(left)) {
		return nil, fmt.Errorf("federate: prepare: the admission is not the lent relation's")
	}
	x := &f.ext[1]
	if left {
		x = &f.ext[0]
	}
	if _, err := f.res.Image(left).Extend(a, x); err != nil {
		return nil, fmt.Errorf("federate: %w", err)
	}
	return f.PrepareExtended(left, x)
}

// PrepareExtended is PrepareAdmitted for a tuple the side's image has
// extended already (match.Image.Extend): a coordinator whose pairs share
// the image extends an arriving tuple once and prepares each pair from
// the one extension, which must stand until every pair has committed.
func (f *Federation) PrepareExtended(left bool, x *match.Extended) (*Pending, error) {
	if x.Image() != f.res.Image(left) {
		return nil, fmt.Errorf("federate: prepare: the tuple was not extended by the side's image")
	}
	f.prepares++
	return f.identify(x, left)
}

// identify gives an extended tuple the probe Build gave every tuple —
// the opposite side's extended-key chain and identity-rule blocks —
// and the §3.2 guards.
func (f *Federation) identify(x *match.Extended, left bool) (*Pending, error) {
	partners := f.res.Probe(left, x, &f.sc)
	if len(partners) > 1 {
		return nil, guardError{fmt.Errorf("federate: insert would match %d tuples at once (unsound)", len(partners)), ErrUniqueness}
	}
	p := &Pending{f: f, left: left, x: x, xseq: x.Seq(), atGen: f.gen, nth: f.prepares}
	if len(partners) == 0 {
		return p, nil
	}
	// own is the side the tuple joins; the partner is read whole, into the
	// scratch, beside the tuple laid out as its side's, for the rules that
	// judge the pair.
	own := f.res.SPrime
	if left {
		own = f.res.RPrime
	}
	j := partners[0]
	rt, st := f.res.Opposite(left, j, &f.sc), f.res.Layout(left, x, &f.sc)
	pair := match.Pair{RIndex: j, SIndex: own.Len()}
	var buf [1]int
	prev, side, otherSide := f.res.MT.MatchesOfR(buf[:0], j), "R", "S"
	if left {
		rt, st = st, rt
		pair = match.Pair{RIndex: own.Len(), SIndex: j}
		prev, side, otherSide = f.res.MT.MatchesOfS(buf[:0], j), "S", "R"
	}
	if len(prev) > 0 {
		return nil, guardError{fmt.Errorf("federate: uniqueness violation: %s tuple %d already matched to %s tuple %d", side, j, otherSide, prev[0]), ErrUniqueness}
	}
	// Consistency guard: the new pair must not be declared distinct. The
	// result's compiled distinctness rules are reused — the candidate
	// tuple has R′/S′ layout, which is all compiled evaluation needs.
	if name, fires := f.res.DistinctFires(rt, st); fires {
		return nil, guardError{fmt.Errorf("federate: consistency violation: new tuple matches a pair distinctness rule %q forbids", name), ErrConsistency}
	}
	p.one[0] = pair
	p.pairs = p.one[:]
	return p, nil
}

// Commit applies a prepared insert whose tuple the caller has inserted
// into the lent relation: match.Result.Append has the side's image adopt
// the extended tuple — keeping what it adds to that tuple — unless
// another pair over the image did, and adds its pairs. It fails — with
// the state untouched — on a stale Pending (any federation mutation
// since prepare: an insert on either side, or an AddILFD rebuild; or a
// later prepare, which took the scratch; or a later extension of the
// tuple's Extended) or when the lent relation is not exactly one tuple
// ahead of the image (the prepared tuple was not inserted, or more than
// it was); under the documented serialise-per-federation discipline it
// cannot fail.
func (p *Pending) Commit() ([]match.Pair, error) {
	f := p.f
	if p.done {
		return nil, fmt.Errorf("federate: commit of an already committed insert")
	}
	if f.gen != p.atGen {
		return nil, fmt.Errorf("federate: stale prepared insert: federation mutated since prepare (generation %d, now %d)", p.atGen, f.gen)
	}
	if f.prepares != p.nth {
		return nil, fmt.Errorf("federate: stale prepared insert: %d later prepares have reused the federation's scratch", f.prepares-p.nth)
	}
	if p.x.Seq() != p.xseq {
		return nil, fmt.Errorf("federate: stale prepared insert: the tuple's extension was reused %d times since", p.x.Seq()-p.xseq)
	}
	if err := f.res.Append(p.left, p.x, p.pairs); err != nil {
		return nil, fmt.Errorf("federate: commit: %w", err)
	}
	p.done = true
	f.gen++
	return p.pairs, nil
}

// AddILFD grows the knowledge base and rebuilds the state, asserting
// §3.3 monotonicity: every previously matched pair must still be
// matched (by position). A non-monotone outcome — possible only when
// the new ILFD contradicts data or prior knowledge — is reported and
// the federation keeps its previous state.
func (f *Federation) AddILFD(fd ilfd.ILFD) error {
	prevMT := f.res.MT // a rebuild makes a new table and leaves this one be
	prev := f.cfg.ILFDs
	next := make(ilfd.Set, 0, len(prev)+1)
	next = append(next, prev...)
	next = append(next, fd)
	f.cfg.ILFDs = next
	if err := f.rebuild(); err != nil {
		f.cfg.ILFDs = prev
		if rerr := f.rebuild(); rerr != nil {
			return fmt.Errorf("federate: rollback failed: %v (original: %w)", rerr, err)
		}
		return err
	}
	for p := range prevMT.All() {
		if !f.res.MT.Contains(p.RIndex, p.SIndex) {
			err := fmt.Errorf("federate: ILFD %v breaks monotonicity: pair (%d,%d) lost", fd, p.RIndex, p.SIndex)
			f.cfg.ILFDs = prev
			if rerr := f.rebuild(); rerr != nil {
				return fmt.Errorf("federate: rollback failed: %v (original: %w)", rerr, err)
			}
			return err
		}
	}
	return nil
}

// Pairs returns the current matching pairs.
func (f *Federation) Pairs() []match.Pair {
	return f.res.MT.Pairs(0, f.res.MT.Len())
}

// State is a federation's mutable state in portable form — the matching
// table, its pairs in commit order, plus the side lengths it was computed
// over; the storage layer's pair table (store.PairTab).
type State struct {
	Pairs      []match.Pair
	RLen, SLen int
}

// SortPairs sorts a pair slice into the canonical (RIndex, SIndex)
// order two tables are compared in.
func SortPairs(ps []match.Pair) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].RIndex != ps[b].RIndex {
			return ps[a].RIndex < ps[b].RIndex
		}
		return ps[a].SIndex < ps[b].SIndex
	})
}

// Reorder has the matching table adopt a recorded commit order, which
// must hold exactly the table's pairs (match.Table.Reorder): what a
// caller rebuilding a federation over the relations a snapshot and a log
// hold takes, once it has worked out the order the table was committed
// in, so the rebuilt table continues that order.
func (f *Federation) Reorder(ps []match.Pair) error {
	if err := f.res.MT.Reorder(ps); err != nil {
		return fmt.Errorf("federate: restore: %w", err)
	}
	return nil
}
