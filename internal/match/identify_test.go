package match_test

// Identify, §3.2's insertion guard, and Append, which grows a pairing by
// a tuple Identify let through: one arrival at a time, in the order the
// hub's commit path and the root facade's Federation run them.

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/match"
	"entityid/internal/paperdata"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

func s(v string) value.Value { return value.String(v) }

func example3Config() match.Config {
	return match.Config{
		R: paperdata.Table5R(),
		S: paperdata.Table5S(),
		Attrs: []match.AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "cuisine", R: "cuisine", S: ""},
			{Name: "speciality", R: "", S: "speciality"},
			{Name: "street", R: "street", S: ""},
			{Name: "county", R: "", S: "county"},
		},
		ExtKey: paperdata.Example3ExtendedKey(),
		ILFDs:  paperdata.Example3ILFDs(),
	}
}

// pairing is incremental identification over the relations cfg lends
// it: the verified result of a batch build, and what one arrival at a
// time works in.
type pairing struct {
	cfg match.Config
	res *match.Result
	x   match.Extended
	sc  match.Scratch
}

func newPairing(t testing.TB, cfg match.Config) *pairing {
	t.Helper()
	res, err := match.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	return &pairing{cfg: cfg, res: res}
}

// extend has the lent relation of a side (left: R) admit a tuple and
// the side's image extend it into p.x.
func (p *pairing) extend(left bool, t relation.Tuple) (relation.Admission, error) {
	a, err := p.side(left).Admit(t)
	if err != nil {
		return a, err
	}
	_, err = p.res.Image(left).Extend(a, &p.x)
	return a, err
}

// insert is one arrival: extend, Identify, the lent relation takes the
// tuple, Append. Every refusal comes before the relation takes it.
func (p *pairing) insert(left bool, t relation.Tuple) ([]match.Pair, error) {
	a, err := p.extend(left, t)
	if err != nil {
		return nil, err
	}
	pairs, err := p.res.Identify(left, &p.x, &p.sc)
	if err != nil {
		return nil, err
	}
	if err := p.side(left).InsertAdmitted(a); err != nil {
		return nil, err
	}
	return pairs, p.res.Append(left, &p.x, pairs, 0)
}

func (p *pairing) side(left bool) *relation.Relation {
	if left {
		return p.cfg.R
	}
	return p.cfg.S
}

func (p *pairing) pairs() []match.Pair { return p.res.MT.Pairs(0, p.res.MT.Len()) }

// TestIdentifyRejectsUniquenessViolation drives both §3.2 uniqueness
// guards: the extended key is name alone beside per-source id keys, so
// the lender's keys let through what the guards must stop. A refused
// tuple leaves the lent relation, R′, the probe's index and the matching
// table as they were.
func TestIdentifyRejectsUniquenessViolation(t *testing.T) {
	idName := func(name string) *relation.Relation {
		return relation.New(schema.MustNew(name, []schema.Attribute{{Name: "id"}, {Name: "name"}}, []string{"id"}))
	}
	fresh := func() *pairing {
		return newPairing(t, match.Config{
			R: idName("R"), S: idName("S"),
			Attrs: []match.AttrMap{
				{Name: "name", R: "name", S: "name"},
				{Name: "rid", R: "id"}, {Name: "sid", S: "id"},
			},
			ExtKey: []string{"name"},
		})
	}
	mustInsert := func(p *pairing, left bool, wantPairs []match.Pair, vals ...string) {
		t.Helper()
		pairs, err := p.insert(left, relation.Tuple{s(vals[0]), s(vals[1])})
		if err != nil {
			t.Fatalf("insert %v: %v", vals, err)
		}
		if !slices.Equal(pairs, wantPairs) {
			t.Fatalf("insert %v produced %v, want %v", vals, pairs, wantPairs)
		}
	}
	// rejected offers the tuple to R, wants the guard's text and sentinel,
	// and then shows nothing moved: same lengths and pairs, and the next
	// valid arrivals land where they would have (r9 unmatched at the old
	// end of R; an S tuple named like it finds r9 there, so the index took
	// r9 and not the refused tuple).
	rejected := func(p *pairing, want string, vals ...string) {
		t.Helper()
		rLen, extLen, pairs := p.cfg.R.Len(), p.res.RPrime.Len(), p.pairs()
		_, err := p.insert(true, relation.Tuple{s(vals[0]), s(vals[1])})
		if !errors.Is(err, match.ErrUniqueness) || errors.Is(err, match.ErrConsistency) || err.Error() != want {
			t.Fatalf("insert %v = %v, want ErrUniqueness with %q", vals, err, want)
		}
		if p.cfg.R.Len() != rLen || p.res.RPrime.Len() != extLen || !reflect.DeepEqual(p.pairs(), pairs) {
			t.Fatalf("refused tuple left a trace: %d R tuples, %d R' tuples, pairs %v; want %d, %d, %v",
				p.cfg.R.Len(), p.res.RPrime.Len(), p.pairs(), rLen, extLen, pairs)
		}
		mustInsert(p, true, nil, "r9", "Z")
		mustInsert(p, false, []match.Pair{{RIndex: rLen, SIndex: p.cfg.S.Len()}}, "s9", "Z")
		if err := p.res.Verify(); err != nil {
			t.Fatalf("state unsound: %v", err)
		}
	}

	// The partner is already matched.
	p := fresh()
	mustInsert(p, false, nil, "s1", "A")
	mustInsert(p, true, []match.Pair{{RIndex: 0, SIndex: 0}}, "r1", "A")
	rejected(p, "match: uniqueness violation: S tuple 0 already matched to R tuple 0", "r2", "A")

	// Two partners at once: S may hold two A's while R holds none.
	p = fresh()
	mustInsert(p, false, nil, "s1", "A")
	mustInsert(p, false, nil, "s2", "A")
	rejected(p, "match: uniqueness violation: insert would match 2 tuples at once (unsound)", "r1", "A")
}

func TestIdentifyConsistencyGuard(t *testing.T) {
	// A small world where a distinctness rule forbids the pair the
	// extended key would produce.
	p := newPairing(t, match.Config{
		R: relation.New(paperdata.Figure2RWithDomain().Schema()),
		S: relation.New(paperdata.Figure2SWithDomain().Schema()),
		Attrs: []match.AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "cuisine", R: "cuisine", S: "cuisine"},
			{Name: "domain", R: "domain", S: "domain"},
		},
		ExtKey:   []string{"name", "cuisine"},
		Distinct: paperdata.Figure2Distinctness(),
	})
	if _, err := p.insert(false, relation.Tuple{s("VillageWok"), s("Chinese"), s("DB2")}); err != nil {
		t.Fatalf("insert into S: %v", err)
	}
	_, err := p.insert(true, relation.Tuple{s("VillageWok"), s("Chinese"), s("DB1")})
	if !errors.Is(err, match.ErrConsistency) || errors.Is(err, match.ErrUniqueness) || !strings.HasPrefix(err.Error(), "match: consistency violation: new tuple matches a pair distinctness rule") {
		t.Fatalf("consistency guard did not fire, or is mistyped: %v", err)
	}
	if p.cfg.R.Len() != 0 || p.res.RPrime.Len() != 0 || p.res.MT.Len() != 0 {
		t.Fatalf("refused tuple left a trace: %d R tuples, %d R' tuples, %d pairs", p.cfg.R.Len(), p.res.RPrime.Len(), p.res.MT.Len())
	}
}

// TestIdentifyLeavesKeysToLender pins the guard half of the ownership
// contract: the lent relation's candidate keys are the lender's to
// check, at admission — a duplicate key is refused there, before any
// image or guard sees the tuple, and leaves the lent relation, R′ and
// the table untouched. Identify guards §3.2, nothing else.
func TestIdentifyLeavesKeysToLender(t *testing.T) {
	p := newPairing(t, example3Config())
	dup := relation.Tuple{s("TwinCities"), s("Chinese"), s("Anywhere")} // R's key is (name, cuisine)
	if _, err := p.insert(true, dup); err == nil || !strings.Contains(err.Error(), "key (name,cuisine) violation") {
		t.Fatalf("insert of a duplicate key = %v, want the lender's refusal", err)
	}
	if p.cfg.R.Len() != 5 || p.res.RPrime.Len() != 5 || p.res.MT.Len() != 3 {
		t.Fatalf("refused tuple left a trace: %d R tuples, %d R' tuples, %d pairs", p.cfg.R.Len(), p.res.RPrime.Len(), p.res.MT.Len())
	}
}

// TestIdentifyChangesNothingUntilAppend: admission, extension and
// Identify leave the pairing and the lent relation alone; the caller's
// one insert into the lent relation and Append grow them by exactly the
// tuple.
func TestIdentifyChangesNothingUntilAppend(t *testing.T) {
	p := newPairing(t, example3Config())
	tup := relation.Tuple{s("NewPlace"), s("Elm St."), s("Greek")}
	a, err := p.extend(true, tup)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := p.res.Identify(true, &p.x, &p.sc)
	if err != nil {
		t.Fatal(err)
	}
	if p.res.MT.Len() != 3 || p.res.RPrime.Len() != 5 || p.cfg.R.Len() != 5 {
		t.Fatalf("identify mutated state: %d pairs, %d R' tuples, %d R tuples", p.res.MT.Len(), p.res.RPrime.Len(), p.cfg.R.Len())
	}
	if err := p.cfg.R.InsertAdmitted(a); err != nil {
		t.Fatal(err)
	}
	if err := p.res.Append(true, &p.x, pairs, 0); err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 || p.res.RPrime.Len() != 6 || p.cfg.R.Len() != 6 || !p.cfg.R.Tuple(5).Identical(tup) {
		t.Fatalf("append: %d pairs, %d R' tuples, %d R tuples", len(pairs), p.res.RPrime.Len(), p.cfg.R.Len())
	}
}

// TestInsertGrowsLentRelation: an arrival on either side goes into the
// caller's relation and its image — there is no private copy for it to
// go to.
func TestInsertGrowsLentRelation(t *testing.T) {
	p := newPairing(t, example3Config())
	rLen, sLen := p.cfg.R.Len(), p.cfg.S.Len()
	rt := relation.Tuple{s("NewPlace"), s("Elm St."), s("Greek")}
	if _, err := p.insert(true, rt); err != nil {
		t.Fatal(err)
	}
	st := relation.Tuple{s("OtherPlace"), s("Hennepin"), s("Gyros")}
	if _, err := p.insert(false, st); err != nil {
		t.Fatal(err)
	}
	if p.cfg.R.Len() != rLen+1 || !p.cfg.R.Tuple(rLen).Identical(rt) || p.res.RPrime.Len() != rLen+1 {
		t.Fatalf("insert into R: lent R has %d tuples, R' %d; want %d ending in %v", p.cfg.R.Len(), p.res.RPrime.Len(), rLen+1, rt)
	}
	if p.cfg.S.Len() != sLen+1 || !p.cfg.S.Tuple(sLen).Identical(st) || p.res.SPrime.Len() != sLen+1 {
		t.Fatalf("insert into S: lent S has %d tuples, S' %d; want %d ending in %v", p.cfg.S.Len(), p.res.SPrime.Len(), sLen+1, st)
	}
}

// grownExample3 is Example 3 grown by one S and one R arrival (live),
// and a batch build over copies of the relations it grew (rebuilt).
func grownExample3(t *testing.T) (live, rebuilt *pairing) {
	t.Helper()
	live = newPairing(t, example3Config())
	if _, err := live.insert(false, relation.Tuple{s("dragon inn"), s("hunan"), s("hennepin")}); err != nil {
		t.Fatal(err)
	}
	if _, err := live.insert(true, relation.Tuple{s("dragon inn"), s("chinese"), s("lake st")}); err != nil {
		t.Fatal(err)
	}
	cfg := example3Config()
	cfg.R, cfg.S = live.cfg.R.Clone(), live.cfg.S.Clone()
	return live, newPairing(t, cfg)
}

// TestReorderRoundTrip: a batch build over the relations an incremental
// pairing grew holds the same pairs (batch ≡ incremental), and adopting
// the incremental one's commit order makes the two tables equal entry by
// entry; an order missing a pair, or naming one the table lacks, is
// refused.
func TestReorderRoundTrip(t *testing.T) {
	f, g := grownExample3(t)
	order := f.pairs()
	if err := g.res.MT.Reorder(order); err != nil {
		t.Fatalf("reorder: %v", err)
	}
	if !slices.Equal(g.pairs(), order) {
		t.Fatalf("reordered table = %v, want %v", g.pairs(), order)
	}
	if err := g.res.MT.Reorder(order[:len(order)-1]); err == nil {
		t.Fatal("an order missing a pair was adopted")
	}
	doctored := slices.Clone(order)
	doctored[0].SIndex = (doctored[0].SIndex + 1) % g.cfg.S.Len()
	if err := g.res.MT.Reorder(doctored); err == nil {
		t.Fatal("an order naming a pair the table lacks was adopted")
	}
}

// TestReorderRefusesAnOrderThatIsNotTheTable: Reorder compares a recorded
// order with the rebuilt table through its partner arrays — as many
// pairs, each one the table holds, no R tuple twice — so every way a
// recorded table can differ from the rebuilt one is refused: a pair
// repeated in place of another (same length, every pair held), two pairs
// with their partners swapped, a pair dropped, a pair added. Any order of
// the true pairs is accepted and kept.
func TestReorderRefusesAnOrderThatIsNotTheTable(t *testing.T) {
	f, g := grownExample3(t)
	order := f.pairs()
	if len(order) < 2 {
		t.Fatalf("table of %d pairs: too few to doctor", len(order))
	}
	slices.Reverse(order)
	if err := g.res.MT.Reorder(order); err != nil || !slices.Equal(g.pairs(), order) {
		t.Fatalf("reorder to the pairs reversed = %v, %v; want them in that order", err, g.pairs())
	}
	free := match.Pair{RIndex: -1, SIndex: -1} // a pair of tuples neither matched
	for i := range g.cfg.R.Len() {
		for j := range g.cfg.S.Len() {
			if len(g.res.MT.MatchesOfR(nil, i)) == 0 && len(g.res.MT.MatchesOfS(nil, j)) == 0 {
				free = match.Pair{RIndex: i, SIndex: j}
			}
		}
	}
	if free.RIndex < 0 {
		t.Fatal("every tuple is matched: no pair to add")
	}
	for name, doctor := range map[string]func([]match.Pair) []match.Pair{
		"repeated in place of another": func(ps []match.Pair) []match.Pair { ps[1] = ps[0]; return ps },
		"partners swapped": func(ps []match.Pair) []match.Pair {
			ps[0].SIndex, ps[1].SIndex = ps[1].SIndex, ps[0].SIndex
			return ps
		},
		"dropped": func(ps []match.Pair) []match.Pair { return ps[1:] },
		"added":   func(ps []match.Pair) []match.Pair { return append(ps, free) },
	} {
		if err := g.res.MT.Reorder(doctor(slices.Clone(order))); err == nil || !strings.Contains(err.Error(), "match: reorder") {
			t.Errorf("a recorded table with a pair %s: Reorder = %v, want a refusal", name, err)
		}
		if !slices.Equal(g.pairs(), order) {
			t.Fatalf("a refused order with a pair %s moved the table to %v", name, g.pairs())
		}
	}
}

// TestAppendFailsClosedUnlessInsertedOnce: an Append whose tuple did not
// reach the lent relation, or did not reach it alone, is refused with
// the pairing exactly as it was.
func TestAppendFailsClosedUnlessInsertedOnce(t *testing.T) {
	p := newPairing(t, example3Config())
	unchanged := func(when string) {
		t.Helper()
		if p.res.MT.Len() != 3 || p.res.RPrime.Len() != 5 {
			t.Fatalf("%s: pairing changed: %d pairs, %d R' tuples; want 3, 5", when, p.res.MT.Len(), p.res.RPrime.Len())
		}
	}
	tup := relation.Tuple{s("NewPlace"), s("Elm St."), s("Greek")}
	if _, err := p.extend(true, tup); err != nil {
		t.Fatal(err)
	}
	pairs, err := p.res.Identify(true, &p.x, &p.sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.res.Append(true, &p.x, pairs, 0); err == nil {
		t.Fatal("append accepted a tuple that never reached the lent relation")
	}
	unchanged("append without insert")
	// Inserted twice over: the lent relation is two ahead.
	if err := p.cfg.R.Insert(tup); err != nil {
		t.Fatal(err)
	}
	if err := p.cfg.R.Insert(relation.Tuple{s("Another"), s("Oak St."), s("Greek")}); err != nil {
		t.Fatal(err)
	}
	if err := p.res.Append(true, &p.x, pairs, 0); err == nil {
		t.Fatal("append accepted a lent relation two tuples ahead")
	}
	unchanged("append after two inserts")
}

// TestAppendedImageIsNotTheExtension: R′ is an image relation over the
// lent R, and the extension Identify probes lives in memory its caller
// reuses. What Append keeps of it is the image's own — the next
// extension overwrites that memory and the appended row reads as before.
// A tuple is identified only against the side whose image extended it.
func TestAppendedImageIsNotTheExtension(t *testing.T) {
	p := newPairing(t, example3Config())
	if !p.res.RPrime.IsImage() || !p.res.SPrime.IsImage() || p.cfg.R.IsImage() {
		t.Fatal("R′ and S′ must be image relations over ordinary lent ones")
	}
	tup := relation.Tuple{s("NewPlace"), s("Elm St."), s("Greek")}
	a, err := p.extend(true, tup)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.res.Image(false).Extend(a, new(match.Extended)); err == nil {
		t.Error("S's image extended R's admission")
	}
	if _, err := p.res.Identify(false, &p.x, &p.sc); err == nil {
		t.Error("an extension by R's image was identified as an S tuple")
	}
	pairs, err := p.res.Identify(true, &p.x, &p.sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cfg.R.InsertAdmitted(a); err != nil {
		t.Fatal(err)
	}
	if err := p.res.Append(true, &p.x, pairs, 0); err != nil {
		t.Fatal(err)
	}
	image, scratch := p.res.RPrime.LayOut(nil, p.x.Row()), &p.x.Row()[0]
	if !image[:len(tup)].Identical(tup) {
		t.Fatalf("image %v does not begin with the source tuple %v", image, tup)
	}
	// The next extension is built where the last one was.
	if _, err := p.extend(true, relation.Tuple{s("Another"), s("Oak St."), s("Thai")}); err != nil {
		t.Fatal(err)
	}
	if &p.x.Row()[0] != scratch {
		t.Error("the second extension did not reuse the first one's memory")
	}
	if got := p.res.RPrime.Tuple(5); !got.Identical(image) {
		t.Errorf("the appended image reads %v once the extension is overwritten, it was %v", got, image)
	}
}

// TestIncrementalEqualsBatch is the central invariant: a pairing that
// received its tuples one by one ends in the same matching state as
// batch identification over the final relations.
func TestIncrementalEqualsBatch(t *testing.T) {
	w := datagen.MustGenerate(datagen.Config{
		Entities: 120, OverlapFrac: 0.5, HomonymRate: 0.15, ILFDCoverage: 0.8, Seed: 55,
	})
	// Start with empty relations, same knowledge.
	cfg := w.MatchConfig()
	empty := cfg
	empty.R = relation.New(w.R.Schema())
	empty.S = relation.New(w.S.Schema())
	p := newPairing(t, empty)
	for _, tup := range w.R.Tuples() {
		if _, err := p.insert(true, tup.Clone()); err != nil {
			t.Fatalf("insert into R: %v", err)
		}
	}
	for _, tup := range w.S.Tuples() {
		if _, err := p.insert(false, tup.Clone()); err != nil {
			t.Fatalf("insert into S: %v", err)
		}
	}
	batch, err := match.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, want := p.pairs(), slices.Collect(batch.MT.All())
	match.SortPairs(got)
	match.SortPairs(want)
	if !slices.Equal(got, want) {
		t.Fatalf("incremental pairs %v, batch %v", got, want)
	}
	if err := p.res.Verify(); err != nil {
		t.Fatalf("incremental state unsound: %v", err)
	}
}

// TestIdentifyAllocs holds the allocation count of one identification —
// the lent relation's admission of the tuple, its extension, its key
// projection, plus the pair when it matches — under a ceiling the
// relational pipeline it replaced (three relations and two schemas per
// tuple) cannot meet.
func TestIdentifyAllocs(t *testing.T) {
	w := datagen.MustGenerate(datagen.Config{
		Entities: 400, OverlapFrac: 0.5, HomonymRate: 0.1, ILFDCoverage: 0.8, Seed: 505,
	})
	cfg := w.MatchConfig()
	cfg.R = relation.New(w.R.Schema())
	p := newPairing(t, cfg)
	arrivals := w.R.Tuples()
	i, matched := 0, 0
	avg := testing.AllocsPerRun(len(arrivals)-1, func() {
		if _, err := p.extend(true, arrivals[i%len(arrivals)]); err != nil {
			t.Fatal(err)
		}
		pairs, err := p.res.Identify(true, &p.x, &p.sc)
		if err != nil {
			t.Fatal(err)
		}
		matched += len(pairs)
		i++
	})
	if matched == 0 {
		t.Fatal("no arrival found a partner: the workload does not exercise the probe")
	}
	const ceiling = 20
	if avg > ceiling {
		t.Fatalf("admit + Extend + Identify allocate %.1f times per tuple, ceiling %d", avg, ceiling)
	}
	t.Logf("admit + Extend + Identify: %.1f allocs per tuple (%d of %d matched)", avg, matched, i)
}

// TestRunIdentifiesAtItsRow: tuples of one run, each admitted behind
// those ahead of it (relation.AdmitBehind) and identified against the
// pairing as it stands, are paired at the rows they will take; once the
// lent relation holds them all, each is appended behind the ones after
// it, and the pairing ends where the tuples taken one at a time leave
// it. Arrivals on opposite sides that could pair share a footprint
// hash; two that cannot, none.
func TestRunIdentifiesAtItsRow(t *testing.T) {
	named := func(name string, rows ...string) *relation.Relation {
		r := relation.New(schema.MustNew(name, []schema.Attribute{{Name: "id", Kind: value.KindString}, {Name: "name", Kind: value.KindString}}, []string{"id"}))
		for i, n := range rows {
			r.MustInsert(s(name+string(rune('0'+i))), s(n))
		}
		return r
	}
	config := func() match.Config {
		return match.Config{
			R: named("R", "a", "b"), S: named("S", "a", "x", "y"),
			Attrs:  []match.AttrMap{{Name: "name", R: "name", S: "name"}, {Name: "rid", R: "id"}, {Name: "sid", S: "id"}},
			ExtKey: []string{"name"},
		}
	}
	arrivals := []relation.Tuple{{s("r7"), s("x")}, {s("r8"), s("z")}, {s("r9"), s("y")}}
	one := newPairing(t, config())
	for _, tup := range arrivals {
		if _, err := one.insert(true, tup); err != nil {
			t.Fatal(err)
		}
	}
	run := newPairing(t, config())
	xs := make([]match.Extended, len(arrivals))
	adms := make([]relation.Admission, len(arrivals))
	var found [][]match.Pair
	for i, tup := range arrivals {
		a, err := run.cfg.R.AdmitBehind(tup, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run.res.Image(true).Extend(a, &xs[i]); err != nil {
			t.Fatal(err)
		}
		pairs, err := run.res.Identify(true, &xs[i], &run.sc)
		if err != nil {
			t.Fatal(err)
		}
		adms[i], found = a, append(found, slices.Clone(pairs))
	}
	if want := []match.Pair{{RIndex: 2, SIndex: 1}}; !reflect.DeepEqual(found[0], want) || len(found[1]) != 0 || !reflect.DeepEqual(found[2], []match.Pair{{RIndex: 4, SIndex: 2}}) {
		t.Fatalf("run identified %v, want each at its own row", found)
	}
	for _, a := range adms {
		if err := run.cfg.R.InsertAdmitted(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.res.Append(true, &xs[0], found[0], 0); err == nil {
		t.Fatal("Append took the run's first tuple as if nothing were behind it")
	}
	for i := range arrivals {
		if err := run.res.Append(true, &xs[i], found[i], len(arrivals)-1-i); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := slices.Collect(run.res.MT.All()), slices.Collect(one.res.MT.All()); !reflect.DeepEqual(got, want) {
		t.Fatalf("run's table %v, one at a time %v", got, want)
	}
	if run.res.RPrime.Len() != one.res.RPrime.Len() {
		t.Fatalf("run's R' holds %d rows, one at a time %d", run.res.RPrime.Len(), one.res.RPrime.Len())
	}

	// Footprints: R's "x" and S's "x" share a hash; R's "x" and S's "y"
	// share none.
	p := newPairing(t, config())
	print := func(left bool, tup relation.Tuple) []uint64 {
		side := p.cfg.S
		if left {
			side = p.cfg.R
		}
		a, err := side.Admit(tup)
		if err != nil {
			t.Fatal(err)
		}
		var x match.Extended
		if _, err := p.res.Image(left).Extend(a, &x); err != nil {
			t.Fatal(err)
		}
		fp, scans := p.res.Footprint(nil, left, &x)
		if scans {
			t.Fatal("no identity rule scans, yet the footprint says one does")
		}
		return fp
	}
	rx, sx, sy := print(true, relation.Tuple{s("r7"), s("x")}), print(false, relation.Tuple{s("s7"), s("x")}), print(false, relation.Tuple{s("s8"), s("y")})
	if len(rx) != 1 || !slices.Equal(rx, sx) || slices.Equal(rx, sy) {
		t.Fatalf("footprints R x %v, S x %v, S y %v: want R x = S x ≠ S y", rx, sx, sy)
	}
}
