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
//   - Integrated / Result: the current integrated view for query
//     processing.
//
// Equivalence with batch identification (match.Build on the final
// relations) is the package's central invariant, and it holds by
// construction at both steps. Extension: the new tuple's R′/S′ image
// comes from match.Result.ExtendAdmitted — the step Build runs over
// every tuple of a side, on the extenders Build resolved. Matching: its
// partners come from match.Result.Probe — the extended-key chain and,
// per extra identity rule, the hash block (or, for a rule with no usable
// equality, the scan), every candidate verified by comparison — which is
// the function Build gives every R′ tuple,
// over the index Build filled; Commit grows that index through
// match.Result.Append. The federation builds no relation, no schema and
// no index, and compiles no rule. What is its own: the §3.2 insertion
// guards, the two-phase protocol with its generation and one-ahead
// checks, monotone rebuild (AddILFD) and the state round-trip (State,
// Restore).
//
// Ownership: a Federation is a view over two relations it is lent
// (Config.R and Config.S), not an owner of copies. The lender owns the
// tuples and guards their candidate keys; the federation owns only what
// it derives from them — the match.Result: extended images R′/S′, probe
// index and matching table. R′ and S′ are image relations over the lent
// ones: row i is the lent relation's tuple i, read where it lies, plus
// the cells the ILFDs derived for it — all a commit keeps of the image
// its prepare built — under no key index of its own: the lent relation's
// index is the only one, its Admit the only key guard. The image a
// prepare builds, the partners it finds and the one partner row it reads
// whole live in scratch the federation owns: one prepared insert at a
// time, and a later prepare voids an earlier Pending. InsertR/InsertS
// insert into the lent relation on the caller's behalf; a coordinator
// that uses Prepare + Commit inserts the tuple into the lent relation
// itself, exactly once, between the two (the hub does, under its own
// locks), and Commit fails closed if it did not. Every prepare starts
// from the lent relation's admission of the tuple (relation.Admit: shape
// and keys, checked once), so no pair checks the shape again and a key
// the lender refuses never reaches a federation.
package federate

import (
	"fmt"
	"sort"

	"entityid/internal/ilfd"
	"entityid/internal/integrate"
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
	// sc is what the one prepared insert at a time works in, and prepares
	// counts them: a Pending whose image a later prepare has overwritten
	// refuses to commit.
	sc       match.Scratch
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
	f := &Federation{cfg: cfg}
	if err := f.rebuild(); err != nil {
		return nil, err
	}
	return f, nil
}

// rebuild runs batch identification.
func (f *Federation) rebuild() error {
	res, err := match.Build(f.cfg)
	if err != nil {
		return err
	}
	if err := res.Verify(); err != nil {
		return fmt.Errorf("federate: %w", err)
	}
	f.res = res
	f.gen++
	return nil
}

// Result returns the current match result (shared; do not mutate).
func (f *Federation) Result() *match.Result { return f.res }

// MT returns the current matching table.
func (f *Federation) MT() *match.Table { return f.res.MT }

// Integrated builds the current integrated table.
func (f *Federation) Integrated() (*integrate.Table, error) {
	return integrate.Build(f.res)
}

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
// extended and its image — in the federation's scratch, until the next
// prepare — identified against the current state without mutating
// anything. The caller then inserts the tuple into the lent relation —
// whose shape and candidate-key checks, made at admission, are the
// lender's — and Commit applies the federation's half. A Pending is invalidated by any
// intervening mutation of the federation; coordinators must serialise
// prepare→commit windows per federation (Commit re-checks and fails on
// a stale Pending rather than corrupting state).
type Pending struct {
	f    *Federation
	left bool
	ext  relation.Tuple
	// keys are ext's projection keys, the ones the probe looked up and the
	// commit indexes it under.
	keys match.Keys
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
// admitted without mutating the federation: its image is extended and
// probed, and the §3.2 guards run. The returned Pending reports the pairs
// the insert will produce and commits the insert on demand. The shape
// the relation checked is not checked again, here or in any other pair
// the coordinator prepares the same admission against; an admission some
// other relation gave is refused.
func (f *Federation) PrepareAdmitted(left bool, a relation.Admission) (*Pending, error) {
	if !a.By(f.base(left)) {
		return nil, fmt.Errorf("federate: prepare: the admission is not the lent relation's")
	}
	f.prepares++
	ext, _, err := f.res.ExtendAdmitted(left, a, &f.sc)
	if err != nil {
		return nil, fmt.Errorf("federate: %w", err)
	}
	return f.identify(ext, left)
}

// identify gives an extended image the probe Build gave every tuple —
// the opposite side's extended-key chain and identity-rule blocks —
// and the §3.2 guards.
func (f *Federation) identify(ext relation.Tuple, left bool) (*Pending, error) {
	partners, keys := f.res.Probe(left, ext, &f.sc)
	if len(partners) > 1 {
		return nil, guardError{fmt.Errorf("federate: insert would match %d tuples at once (unsound)", len(partners)), ErrUniqueness}
	}
	p := &Pending{f: f, left: left, ext: ext, keys: keys, atGen: f.gen, nth: f.prepares}
	if len(partners) == 0 {
		return p, nil
	}
	// own is the side the tuple joins; the partner is read whole, into the
	// scratch, for the rules that judge the pair.
	own := f.res.SPrime
	if left {
		own = f.res.RPrime
	}
	j := partners[0]
	rt, st := f.res.Opposite(left, j, &f.sc), ext
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
// into the lent relation: match.Result.Append has R′/S′ adopt the image
// the prepare built — keeping what it adds to that tuple — indexes it and
// adds its pairs. It fails — with the state untouched — on a stale
// Pending (any federation mutation since prepare: an insert on either
// side, or an AddILFD rebuild; or a later prepare, which took the scratch
// the image was in) or when the lent relation is not exactly one tuple
// ahead of its extended image (the prepared tuple was not inserted, or
// more than it was); under the documented serialise-per-federation
// discipline it cannot fail.
func (p *Pending) Commit() ([]match.Pair, error) {
	f := p.f
	if p.done {
		return nil, fmt.Errorf("federate: commit of an already committed insert")
	}
	side := f.res.SPrime
	if p.left {
		side = f.res.RPrime
	}
	if f.gen != p.atGen {
		return nil, fmt.Errorf("federate: stale prepared insert: federation mutated since prepare (generation %d, now %d)", p.atGen, f.gen)
	}
	if f.prepares != p.nth {
		return nil, fmt.Errorf("federate: stale prepared insert: %d later prepares have reused the federation's scratch", f.prepares-p.nth)
	}
	if got, want := f.base(p.left).Len(), side.Len()+1; got != want {
		return nil, fmt.Errorf("federate: commit: lent relation holds %d tuples, the prepared insert makes it %d", got, want)
	}
	if err := f.res.Append(p.left, p.ext, p.keys, p.pairs); err != nil {
		return nil, fmt.Errorf("federate: extended insert: %w", err)
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

// State is a federation's exported mutable state — the matching table
// plus the side lengths it was computed over. Snapshots and the storage
// layer both store it with the pairs in commit order (ExportOrdered,
// PairsRange), so recovery and page-in can verify that a rebuilt
// federation reproduces exactly the state that was saved, and continue
// its order.
type State struct {
	Pairs      []match.Pair
	RLen, SLen int
}

// PairsRange returns a copy of matching pairs [lo, hi) in commit
// order. The matching table is append-only under the hub's commit lock,
// so what a consistent cut of length hi saw is exactly the table's first
// hi entries, and what an earlier cut saw a prefix of them — the basis of
// snapshot capture under briefly-held locks and of runs that never
// change once full.
func (f *Federation) PairsRange(lo, hi int) []match.Pair {
	return f.res.MT.Pairs(lo, hi)
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

// ExportOrdered captures the federation's mutable state with the
// matching table in COMMIT ORDER, not the canonical sorted order. The
// hub's storage layer spills this form: the table is
// append-only under the commit lock, so the length-n prefix of a
// commit-order export reproduces any cut taken at length n — even a
// cut taken before the export. Restore accepts any order of the same
// pairs.
func (f *Federation) ExportOrdered() State {
	return State{
		Pairs: f.Pairs(),
		RLen:  f.cfg.R.Len(),
		SLen:  f.cfg.S.Len(),
	}
}

// Restore rebuilds a federation from a configuration (whose relations
// hold the snapshot-time tuples) and verifies it reproduces the
// exported state bit-for-bit: same side lengths, same matching pairs.
// Batch identification over the final relations is equivalent to the
// incremental inserts that produced the state (the package invariant),
// so any mismatch means the snapshot does not describe these relations
// — recovery fails closed instead of serving a silently different
// matching table. The pairs are compared through the rebuilt table's
// partner arrays (match.Table.Reorder), with no sorted copy of either:
// the rebuilt table is sound, so as many saved pairs, each one it
// contains and no R tuple twice, are the same set.
func Restore(cfg match.Config, st State) (*Federation, error) {
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if got, want := f.cfg.R.Len(), st.RLen; got != want {
		return nil, fmt.Errorf("federate: restore: R has %d tuples, state expects %d", got, want)
	}
	if got, want := f.cfg.S.Len(), st.SLen; got != want {
		return nil, fmt.Errorf("federate: restore: S has %d tuples, state expects %d", got, want)
	}
	// Adopt the state's pair order, not the batch rebuild's: callers
	// that spill and re-load live federations (the hub's storage tier)
	// record the table in commit order and read snapshot cuts as
	// prefixes of it, so the restored table must continue the recorded
	// order.
	if err := f.Reorder(st.Pairs); err != nil {
		return nil, err
	}
	return f, nil
}

// Reorder has the matching table adopt a recorded commit order, which
// must hold exactly the table's pairs (match.Table.Reorder): the step of
// Restore that a caller rebuilding a federation over relations grown
// past its saved state takes on its own, once it has worked out the
// order the grown table was committed in.
func (f *Federation) Reorder(ps []match.Pair) error {
	if err := f.res.MT.Reorder(ps); err != nil {
		return fmt.Errorf("federate: restore: %w", err)
	}
	return nil
}
