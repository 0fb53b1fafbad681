package entityid

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"entityid/internal/match"
	"entityid/internal/paperdata"
	"entityid/internal/quality"
	"entityid/internal/rules"
	"entityid/internal/value"
)

// example3System wires the paper's Example 3 through the public API.
func example3System() *System {
	sys := New()
	sys.SetRelations(paperdata.Table5R(), paperdata.Table5S())
	sys.MapAttr("name", "name", "name")
	sys.MapAttr("cuisine", "cuisine", "")
	sys.MapAttr("speciality", "", "speciality")
	sys.MapAttr("street", "street", "")
	sys.MapAttr("county", "", "county")
	sys.SetExtendedKey("name", "cuisine", "speciality")
	for _, f := range paperdata.Example3ILFDs() {
		sys.AddILFD(f)
	}
	return sys
}

func TestIdentifyExample3(t *testing.T) {
	res, err := example3System().Identify()
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("VerifyErr = %v", res.VerifyErr)
	}
	if got := len(res.MatchingPairs()); got != 3 {
		t.Fatalf("matching pairs = %d, want 3", got)
	}
	if got := res.IntegratedTable().Len(); got != 6 {
		t.Errorf("integrated rows = %d, want 6", got)
	}
	part := res.Partition()
	if part.Matching != 3 {
		t.Errorf("partition = %v", part)
	}
	if part.Complete() {
		t.Error("Example 3 should not be complete")
	}
	mtOut := res.RenderMatchingTable()
	for _, want := range []string{"TwinCities", "Hunan", "It'sGreek", "Gyros", "Anjuman", "Mughalai"} {
		if !strings.Contains(mtOut, want) {
			t.Errorf("matching table missing %q:\n%s", want, mtOut)
		}
	}
	itOut := res.RenderIntegratedTable()
	for _, want := range []string{"VillageWok", "null", "Sichuan"} {
		if !strings.Contains(itOut, want) {
			t.Errorf("integrated table missing %q:\n%s", want, itOut)
		}
	}
}

func TestIdentifyFailsClosedOnUnsoundKey(t *testing.T) {
	sys := example3System()
	sys.SetExtendedKey("name")
	_, err := sys.Identify()
	if err == nil || !strings.Contains(err.Error(), "unsound matching result") {
		t.Fatalf("Identify = %v, want unsound error (the prototype's warning)", err)
	}
	// Unchecked returns the table plus the violation.
	res, err := sys.IdentifyUnchecked()
	if err != nil {
		t.Fatalf("IdentifyUnchecked: %v", err)
	}
	if res.VerifyErr == nil {
		t.Error("VerifyErr nil for unsound key")
	}
	if len(res.MatchingPairs()) == 0 {
		t.Error("unchecked result hides the unsound table")
	}
}

func TestIdentifyPreconditions(t *testing.T) {
	if _, err := New().Identify(); err == nil || !strings.Contains(err.Error(), "SetRelations") {
		t.Errorf("missing relations error = %v", err)
	}
	sys := New().SetRelations(paperdata.Table5R(), paperdata.Table5S())
	if _, err := sys.Identify(); err == nil || !strings.Contains(err.Error(), "SetExtendedKey") {
		t.Errorf("missing key error = %v", err)
	}
}

func TestAddILFDText(t *testing.T) {
	sys := New()
	if err := sys.AddILFDText("speciality=Hunan -> cuisine=Chinese"); err != nil {
		t.Fatalf("AddILFDText: %v", err)
	}
	if err := sys.AddILFDText("not an ilfd"); err == nil {
		t.Error("bad ILFD text accepted")
	}
	if got := len(sys.ILFDs()); got != 1 {
		t.Errorf("ILFDs = %d", got)
	}
}

func TestMonotonicityPublicAPI(t *testing.T) {
	// §3.3 through the public API: grow the ILFD set one at a time and
	// watch the partition move monotonically.
	all := paperdata.Example3ILFDs()
	var prev *Result
	for k := 0; k <= len(all); k++ {
		sys := New()
		sys.SetRelations(paperdata.Table5R(), paperdata.Table5S())
		sys.MapAttr("name", "name", "name").
			MapAttr("cuisine", "cuisine", "").
			MapAttr("speciality", "", "speciality").
			MapAttr("street", "street", "").
			MapAttr("county", "", "county")
		sys.SetExtendedKey("name", "cuisine", "speciality")
		for _, f := range all[:k] {
			sys.AddILFD(f)
		}
		res, err := sys.Identify()
		if err != nil {
			t.Fatalf("Identify(%d ILFDs): %v", k, err)
		}
		if prev != nil {
			a, b := prev.Partition(), res.Partition()
			if b.Matching < a.Matching || b.NotMatching < a.NotMatching || b.Undetermined > a.Undetermined {
				t.Errorf("not monotonic at %d ILFDs: %v -> %v", k, a, b)
			}
			// Previously matched pairs stay matched.
			for _, p := range prev.MatchingPairs() {
				if res.Classify(p.RIndex, p.SIndex) != Matching {
					t.Errorf("pair %v lost its match at %d ILFDs", p, k)
				}
			}
		}
		prev = res
	}
}

func TestAssertMatch(t *testing.T) {
	// VillageWok has no S counterpart; assert a user-specified pair with
	// the Sichuan tuple and watch it land in the matching table (and
	// then fail verification, because Sichuan already matches nothing
	// but TwinCities-Chinese pairs with it... actually Sichuan is
	// unmatched, so the assertion is accepted and verification passes
	// unless a distinctness rule objects — Prop 1 on I2 does object:
	// e1.speciality=Sichuan ∧ e2.cuisine≠Chinese → distinct. VillageWok
	// is Chinese, so no objection: the assertion stands.)
	sys := example3System()
	sys.AssertMatch(
		[]Value{String("VillageWok"), String("Chinese")},
		[]Value{String("TwinCities"), String("Sichuan")},
	)
	res, err := sys.Identify()
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	if got := len(res.MatchingPairs()); got != 4 {
		t.Fatalf("pairs = %d, want 4 (3 derived + 1 asserted)", got)
	}
	// Integrated table shrinks by one row (two unmatched rows merged).
	if got := res.IntegratedTable().Len(); got != 5 {
		t.Errorf("integrated rows = %d, want 5", got)
	}
}

func TestAssertMatchConflictsWithDistinctness(t *testing.T) {
	// Asserting a pair a Prop-1 rule declares distinct must fail
	// verification: consistency constraint (§3.2).
	sys := example3System()
	sys.AssertMatch(
		// TwinCities-Indian (R) vs TwinCities-Hunan (S): I1 derives
		// e2.cuisine=Chinese ≠ Indian… the Prop-1 rule for I1 is
		// e1.speciality=Hunan ∧ e2.cuisine≠Chinese → distinct, matched
		// in the S→R orientation.
		[]Value{String("TwinCities"), String("Indian")},
		[]Value{String("TwinCities"), String("Hunan")},
	)
	_, err := sys.Identify()
	if err == nil || !strings.Contains(err.Error(), "unsound") {
		t.Fatalf("Identify = %v, want consistency failure", err)
	}
}

// TestAssertMatchBreakingUniquenessMatchesReference: an asserted pair
// whose R tuple the extended key already matched makes the table
// unsound. The pair goes into the table's overflow, off its partner
// arrays, and every answer — the classifier, the Figure 3 tally and the
// violation Verify names — is still the naive reference's, which scans
// the table's log.
func TestAssertMatchBreakingUniquenessMatchesReference(t *testing.T) {
	sys := example3System()
	rKey := []Value{String("TwinCities"), String("Chinese")}
	sys.AssertMatch(rKey, []Value{String("TwinCities"), String("Sichuan")})
	res, err := sys.IdentifyUnchecked()
	if err != nil {
		t.Fatal(err)
	}
	i := sys.r.LookupKey(rKey...)
	j := sys.s.LookupKey(String("TwinCities"), String("Sichuan"))
	was := sys.s.LookupKey(String("TwinCities"), String("Hunan"))
	want := fmt.Sprintf("match: uniqueness violation: R tuple %d matches S tuples %d and %d", i, was, j)
	if res.VerifyErr == nil || res.VerifyErr.Error() != want {
		t.Fatalf("VerifyErr = %v, want %q", res.VerifyErr, want)
	}
	ref, err := match.Build(match.Config{
		R: sys.r, S: sys.s, Attrs: sys.attrs, ExtKey: sys.extKey, ILFDs: sys.ilfds,
		Identity: sys.identity, Distinct: sys.distinct, DeriveMode: sys.mode, DisableProp1: sys.prop1Off,
		Naive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref.MT.Add(match.Pair{RIndex: i, SIndex: j})
	if got := ref.Verify(); got == nil || got.Error() != want {
		t.Fatalf("reference Verify = %v, want %q", got, want)
	}
	for r := range sys.r.Len() {
		for s := range sys.s.Len() {
			if got, want := res.Classify(r, s), ref.Classify(r, s); got != want {
				t.Errorf("Classify(%d,%d) = %v, reference %v", r, s, got, want)
			}
		}
	}
	m, n, u := ref.Counts()
	if got, want := res.Partition(), (quality.Partition{Matching: m, NotMatching: n, Undetermined: u}); got != want {
		t.Errorf("Partition = %v, reference %v", got, want)
	}
	if res.Classify(i, j) != Matching || res.Classify(i, was) != Matching {
		t.Errorf("the asserted pair or the one it breaks is not matching")
	}
}

func TestAssertMatchUnknownKeys(t *testing.T) {
	sys := example3System()
	sys.AssertMatch([]Value{String("Nobody"), String("None")}, []Value{String("X"), String("Y")})
	if _, err := sys.Identify(); err == nil {
		t.Error("stale asserted pair accepted")
	}
}

func TestDistinctnessRulePublicAPI(t *testing.T) {
	sys := example3System()
	sys.AddDistinctnessRule(rules.MustNewDistinctness("no-cross-county", []rules.Predicate{
		{Left: rules.Attr1("name"), Op: rules.Eq, Right: rules.Attr2("name")},
		{Left: rules.Attr1("cuisine"), Op: rules.Ne, Right: rules.Attr2("cuisine")},
	}))
	res, err := sys.Identify()
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	// R TwinCities-Indian vs S TwinCities-Hunan(Chinese): rule fires.
	if v := res.Classify(1, 0); v != NotMatching {
		t.Errorf("Classify = %v, want not-matching via explicit rule", v)
	}
}

func TestDisableProp1PublicAPI(t *testing.T) {
	sys := example3System()
	sys.DisableProp1()
	res, err := sys.Identify()
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	if got := res.Partition().NotMatching; got != 0 {
		t.Errorf("not-matching = %d with Prop 1 disabled", got)
	}
}

func TestUseFixpointDerivation(t *testing.T) {
	sys := example3System()
	sys.UseFixpointDerivation()
	if err := sys.AddILFDText("speciality=Hunan -> cuisine=Thai"); err != nil {
		t.Fatal(err)
	}
	res, err := sys.IdentifyUnchecked()
	if err != nil {
		t.Fatalf("IdentifyUnchecked: %v", err)
	}
	if len(res.DerivationConflicts()) == 0 {
		t.Error("fixpoint conflicts not surfaced")
	}
}

func TestNewRelationHelper(t *testing.T) {
	r, err := NewRelation("R", []Attribute{
		{Name: "name", Kind: value.KindString},
	}, []string{"name"})
	if err != nil {
		t.Fatalf("NewRelation: %v", err)
	}
	r.MustInsert(String("x"))
	if r.Len() != 1 {
		t.Error("insert failed")
	}
	if _, err := NewRelation("", nil); err == nil {
		t.Error("bad schema accepted")
	}
}

func TestParseILFDHelper(t *testing.T) {
	f, err := ParseILFD("a=1 -> b=2")
	if err != nil || len(f.Antecedent) != 1 {
		t.Errorf("ParseILFD = %v, %v", f, err)
	}
	if _, err := ParseILFD("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestMergedPublicAPI(t *testing.T) {
	res, err := example3System().Identify()
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	merged, conflicts, err := res.Merged(MergeCoalesce)
	if err != nil {
		t.Fatalf("Merged: %v", err)
	}
	if len(conflicts) != 0 {
		t.Errorf("conflicts: %v", conflicts)
	}
	if merged.Len() != 6 {
		t.Errorf("merged rows = %d, want 6", merged.Len())
	}
	// One column per integrated attribute — no r_/s_ prefixes.
	sch := merged.Schema()
	for _, a := range []string{"name", "cuisine", "speciality", "street", "county"} {
		if !sch.Has(a) {
			t.Errorf("merged schema missing %q", a)
		}
	}
	if sch.Has("r_name") || sch.Has("s_name") {
		t.Error("merged schema kept prefixed columns")
	}
	// The matched TwinCities/Hunan entity carries street (from R) and
	// county (from S) in a single row.
	found := false
	for i := 0; i < merged.Len(); i++ {
		spec := merged.MustValue(i, "speciality")
		if !spec.IsNull() && spec.Str() == "Hunan" {
			found = true
			if v := merged.MustValue(i, "street"); v.IsNull() || v.Str() != "Co.B2" {
				t.Errorf("Hunan street = %v", v)
			}
			if v := merged.MustValue(i, "county"); v.IsNull() || v.Str() != "Roseville" {
				t.Errorf("Hunan county = %v", v)
			}
		}
	}
	if !found {
		t.Error("Hunan row missing from merged relation")
	}
}

// TestMergeExample3 collapses the paper's integrated table into the
// final one-column-per-attribute relation: 6 entities, each with a
// single name/cuisine/speciality/street/county.
func TestMergeExample3(t *testing.T) {
	res, err := example3System().Identify()
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	merged, conflicts, err := res.Merged(MergeCoalesce)
	if err != nil {
		t.Fatalf("Merged: %v", err)
	}
	if len(conflicts) != 0 {
		t.Fatalf("conflicts: %v", conflicts)
	}
	if merged.Len() != 6 {
		t.Fatalf("merged rows = %d, want 6", merged.Len())
	}
	sch := merged.Schema()
	for _, a := range []string{"name", "cuisine", "speciality", "street", "county"} {
		if !sch.Has(a) {
			t.Errorf("merged schema missing %q: %v", a, sch)
		}
	}
	// The matched It'sGreek row must carry attributes from BOTH sides:
	// street (R only) and county (S only).
	found := false
	for i := 0; i < merged.Len(); i++ {
		if v := merged.MustValue(i, "name"); !v.IsNull() && v.Str() == "It'sGreek" {
			found = true
			if got := merged.MustValue(i, "street"); got.IsNull() || got.Str() != "FrontAve." {
				t.Errorf("It'sGreek street = %v", got)
			}
			if got := merged.MustValue(i, "county"); got.IsNull() || got.Str() != "Ramsey" {
				t.Errorf("It'sGreek county = %v", got)
			}
		}
	}
	if !found {
		t.Error("It'sGreek row missing")
	}
}

// TestMergedColumnsTwoSided checks that Merged reads its columns off
// T_RS: both extended relations carry all five integrated attributes, so
// every merged column X pairs T_RS's r_X with its s_X — five columns,
// not ten.
func TestMergedColumnsTwoSided(t *testing.T) {
	res, err := example3System().Identify()
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	merged, _, err := res.Merged(MergeCoalesce)
	if err != nil {
		t.Fatalf("Merged: %v", err)
	}
	sch, tsch := merged.Schema(), res.IntegratedTable().Schema()
	if sch.Arity() != 5 {
		t.Fatalf("merged schema %v, want five columns", sch)
	}
	for _, a := range sch.AttrNames() {
		if !tsch.Has("r_"+a) || !tsch.Has("s_"+a) {
			t.Errorf("merged column %q not two-sided in T_RS %v", a, tsch)
		}
	}
}

// phoneSystem is a two-relation system whose one matched pair (name a)
// disagrees on phone, an attribute both sides model.
func phoneSystem(t *testing.T) *System {
	t.Helper()
	r, err := NewRelation("R", []Attribute{{Name: "name"}, {Name: "phone"}}, []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRelation("S", []Attribute{{Name: "nm"}, {Name: "tel"}}, []string{"nm"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range []Tuple{{String("a"), String("111")}, {String("b"), Null}} {
		if err := r.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range []Tuple{{String("a"), String("222")}, {String("c"), String("333")}} {
		if err := s.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	sys := New().SetRelations(r, s)
	sys.MapAttr("name", "name", "nm").MapAttr("phone", "phone", "tel")
	sys.SetExtendedKey("name")
	return sys
}

// TestMergeStrategies drives every merge strategy through the public
// surface on a pair that disagrees on phone (T_RS row 0).
func TestMergeStrategies(t *testing.T) {
	res, err := phoneSystem(t).Identify()
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	want := MergeConflict{Row: 0, Attr: "phone", RV: String("111"), SV: String("222"), Resolved: String("111")}
	sameConflict := func(got MergeConflict) bool {
		return got.Row == want.Row && got.Attr == want.Attr && value.Identical(got.RV, want.RV) &&
			value.Identical(got.SV, want.SV) && value.Identical(got.Resolved, want.Resolved)
	}
	for _, c := range []struct {
		st        MergeStrategy
		phone     string
		conflicts int
	}{
		{MergeCoalesce, "111", 1},
		{MergePreferR, "111", 0},
		{MergePreferS, "222", 0},
	} {
		merged, conflicts, err := res.Merged(c.st)
		if err != nil {
			t.Fatalf("%v: %v", c.st, err)
		}
		if merged.Len() != 3 { // the a pair, b alone, c alone
			t.Fatalf("%v: %d merged rows, want 3", c.st, merged.Len())
		}
		if got := merged.MustValue(0, "phone"); got.Str() != c.phone {
			t.Errorf("%v: phone %v, want %s", c.st, got, c.phone)
		}
		if len(conflicts) != c.conflicts || (c.conflicts == 1 && !sameConflict(conflicts[0])) {
			t.Errorf("%v: conflicts %+v, want %d like %+v", c.st, conflicts, c.conflicts, want)
		}
	}
	_, _, err = res.Merged(MergeStrict)
	var mc MergeConflict
	if !errors.As(err, &mc) || !sameConflict(mc) {
		t.Errorf("MergeStrict error = %v, want the MergeConflict %+v", err, want)
	}
}

// TestMergedKindMismatch: an unmapped attribute both sources hold under
// one name but different kinds cannot merge into one column.
func TestMergedKindMismatch(t *testing.T) {
	r, err := NewRelation("R", []Attribute{{Name: "name"}, {Name: "id", Kind: KindInt}}, []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRelation("S", []Attribute{{Name: "name"}, {Name: "id"}}, []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	sys := New().SetRelations(r, s).MapAttr("name", "name", "name").SetExtendedKey("name")
	res, err := sys.Identify()
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	if _, _, err := res.Merged(MergeCoalesce); err == nil || !strings.Contains(err.Error(), "kind mismatch") {
		t.Errorf("Merged error = %v, want a kind mismatch", err)
	}
}

// TestHubHoldsExample3 links Tables 5's R and S in a memory-only hub as
// Example 3 does and finds T_RS in it: MT_RS's three pairs as the
// two-member clusters, T_RS's three padded rows as the singletons, and
// each cluster's merged record equal to the facade's merged row of the
// same entity, except where an ILFD derived a cell (the hub serves
// source values only).
func TestHubHoldsExample3(t *testing.T) {
	h := NewHub()
	defer h.Close()
	for name, rel := range map[string]*Relation{"r": paperdata.Table5R(), "s": paperdata.Table5S()} {
		if err := h.AddSource(name, rel); err != nil {
			t.Fatal(err)
		}
	}
	pair := NewPair("r", "s").
		MapAttr("name", "name", "name").
		MapAttr("cuisine", "cuisine", "").
		MapAttr("speciality", "", "speciality").
		MapAttr("street", "street", "").
		MapAttr("county", "", "county").
		SetExtendedKey(paperdata.Example3ExtendedKey()...)
	for _, f := range paperdata.Example3ILFDs() {
		pair.AddILFD(f)
	}
	if err := h.Link(pair); err != nil {
		t.Fatalf("Link: %v", err)
	}
	res, err := example3System().Identify()
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	tab := res.IntegratedTable()
	merged, _, err := res.Merged(MergeCoalesce)
	if err != nil {
		t.Fatal(err)
	}

	clusters := h.Clusters()
	if len(clusters) != 6 || tab.Len() != 6 {
		t.Fatalf("%d clusters, %d T_RS rows; want 6 and 6", len(clusters), tab.Len())
	}
	isPair := map[Pair]bool{}
	for _, p := range res.MatchingPairs() {
		isPair[p] = true
	}
	// A cluster's side is its member from that source, keyed as T_RS's
	// r_/s_ key columns key it (R: name, cuisine; S: name, speciality).
	side := func(cl EntityCluster, src string) (ClusterMember, bool) {
		for _, m := range cl.Members {
			if m.Source == src {
				return m, true
			}
		}
		return ClusterMember{}, false
	}
	sameSide := func(row int, prefix, keyAttr string, m ClusterMember, ok bool) bool {
		name, key := tab.MustValue(row, prefix+"name"), tab.MustValue(row, prefix+keyAttr)
		if !ok {
			return name.IsNull()
		}
		t := m.Tuple()
		return value.Identical(name, t[0]) && value.Identical(key, t[1])
	}
	pairs, singles, derived := 0, 0, []string{}
	used := map[string]bool{}
	for row := range tab.Len() {
		var cl EntityCluster
		found := 0
		for _, c := range clusters {
			rm, rok := side(c, "r")
			sm, sok := side(c, "s")
			if sameSide(row, "r_", "cuisine", rm, rok) && sameSide(row, "s_", "speciality", sm, sok) {
				cl, found = c, found+1
			}
		}
		if found != 1 || used[cl.ID] {
			t.Fatalf("T_RS row %d matches %d clusters (reused %v)", row, found, used[cl.ID])
		}
		used[cl.ID] = true
		rm, rok := side(cl, "r")
		sm, sok := side(cl, "s")
		switch {
		case len(cl.Members) == 2 && rok && sok:
			pairs++
			if !isPair[Pair{RIndex: rm.Index, SIndex: sm.Index}] {
				t.Errorf("cluster %v is no matching-table pair", cl.Members)
			}
		case len(cl.Members) == 1:
			singles++
		default:
			t.Errorf("cluster %v", cl.Members)
		}
		rec, err := h.Merged(cl, MergeCoalesce)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range merged.Schema().AttrNames() {
			want := merged.MustValue(row, a)
			switch got, ok := rec.Values[a]; {
			case ok && value.Identical(got, want), !ok && want.IsNull():
			case !ok:
				derived = append(derived, fmt.Sprintf("%s/%s %s=%s",
					merged.MustValue(row, "name"), merged.MustValue(row, "speciality"), a, want))
			default:
				t.Errorf("row %d %s: hub %v, facade %v", row, a, got, want)
			}
		}
	}
	if pairs != 3 || singles != 3 {
		t.Errorf("%d pair clusters, %d singletons; want 3 and 3", pairs, singles)
	}
	if want := []string{"TwinCities/Sichuan cuisine=Chinese"}; !slices.Equal(derived, want) {
		t.Errorf("cells only an ILFD derived: %v, want %v", derived, want)
	}
}

func TestFederatePublicAPI(t *testing.T) {
	fed, err := example3System().Federate()
	if err != nil {
		t.Fatalf("Federate: %v", err)
	}
	if got := len(fed.Pairs()); got != 3 {
		t.Fatalf("initial pairs = %d", got)
	}
	// Stream knowledge then a tuple; the VillageWok pair completes.
	for _, line := range []string{
		"speciality=Cantonese -> cuisine=Chinese",
		"name=VillageWok & street=Wash.Ave. -> speciality=Cantonese",
	} {
		f, err := ParseILFD(line)
		if err != nil {
			t.Fatal(err)
		}
		if err := fed.AddILFD(f); err != nil {
			t.Fatalf("AddILFD: %v", err)
		}
	}
	pairs, err := fed.InsertS(Tuple{String("VillageWok"), String("Cantonese"), String("Hennepin")})
	if err != nil {
		t.Fatalf("InsertS: %v", err)
	}
	if len(pairs) != 1 {
		t.Fatalf("incremental pairs = %v", pairs)
	}
	if got := len(fed.Pairs()); got != 4 {
		t.Errorf("total pairs = %d, want 4", got)
	}
	it, err := fed.IntegratedTable()
	if err != nil {
		t.Fatalf("IntegratedTable: %v", err)
	}
	if it.Len() != 6 { // 4 merged + 1 R-only (TwinCities-Indian) + 1 S-only (Sichuan)
		t.Errorf("integrated rows = %d, want 6", it.Len())
	}
	// The system's own relations are untouched (the federation copies).
	res, err := example3System().Identify()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MatchingPairs()) != 3 {
		t.Error("federation mutated the source system")
	}
}

func TestFederatePreconditions(t *testing.T) {
	if _, err := New().Federate(); err == nil {
		t.Error("Federate without relations accepted")
	}
	sys := New().SetRelations(paperdata.Table5R(), paperdata.Table5S())
	if _, err := sys.Federate(); err == nil {
		t.Error("Federate without extended key accepted")
	}
}

// TestFederateBuildsAndVerifies: Federate builds the initial table and
// verifies it.
func TestFederateBuildsAndVerifies(t *testing.T) {
	fed, err := example3System().Federate()
	if err != nil {
		t.Fatalf("Federate: %v", err)
	}
	if got := len(fed.Pairs()); got != 3 {
		t.Errorf("initial pairs = %d, want 3", got)
	}
	if it, err := fed.IntegratedTable(); err != nil || it.Len() != 6 {
		t.Errorf("integrated table: %v, %v; want 6 rows", it, err)
	}
}

// TestFederateFailsClosedOnUnsoundKey: Federate refuses an extended key
// under which the initial table breaks uniqueness.
func TestFederateFailsClosedOnUnsoundKey(t *testing.T) {
	sys := example3System()
	sys.SetExtendedKey("name")
	if _, err := sys.Federate(); !errors.Is(err, match.ErrUniqueness) {
		t.Fatalf("Federate over an unsound key = %v, want a uniqueness violation", err)
	}
}

// TestFederationInsertRMatchesIncrementally: an R tuple with no
// derivable speciality matches nothing; once two ILFDs say what
// VillageWok serves, the S tuple that completes R's unmatched VillageWok
// row pairs with it, and the grown table still verifies.
func TestFederationInsertRMatchesIncrementally(t *testing.T) {
	fed, err := example3System().Federate()
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := fed.InsertR(Tuple{String("NewPlace"), String("Thai"), String("Main St")})
	if err != nil {
		t.Fatalf("InsertR: %v", err)
	}
	if len(pairs) != 0 {
		t.Fatalf("unexpected pairs %v", pairs)
	}
	for _, line := range []string{
		"speciality=Cantonese -> cuisine=Chinese",
		"name=VillageWok & street=Wash.Ave. -> speciality=Cantonese",
	} {
		f, err := ParseILFD(line)
		if err != nil {
			t.Fatal(err)
		}
		if err := fed.AddILFD(f); err != nil {
			t.Fatalf("AddILFD: %v", err)
		}
	}
	pairs, err = fed.InsertS(Tuple{String("VillageWok"), String("Cantonese"), String("Hennepin")})
	if err != nil {
		t.Fatalf("InsertS: %v", err)
	}
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v, want 1", pairs)
	}
	if name := fed.res.RPrime.MustValue(pairs[0].RIndex, "name"); name.Str() != "VillageWok" {
		t.Errorf("matched R row = %v", name)
	}
	if got := len(fed.Pairs()); got != 4 {
		t.Errorf("total pairs = %d, want 4", got)
	}
	if err := fed.res.Verify(); err != nil {
		t.Fatalf("state unsound: %v", err)
	}
}

// TestFederationInsertRejectsKeyViolation: a tuple repeating R's key
// (name, cuisine) is refused and leaves the pairs as they were.
func TestFederationInsertRejectsKeyViolation(t *testing.T) {
	fed, err := example3System().Federate()
	if err != nil {
		t.Fatal(err)
	}
	before := fed.Pairs()
	_, err = fed.InsertR(Tuple{String("TwinCities"), String("Chinese"), String("Anywhere")})
	if err == nil || !strings.Contains(err.Error(), "key") {
		t.Fatalf("key violation not refused: %v", err)
	}
	if !slices.Equal(fed.Pairs(), before) || fed.cfg.R.Len() != 5 || fed.res.RPrime.Len() != 5 {
		t.Errorf("refused insert left a trace: pairs %v, %d R tuples, %d R' tuples", fed.Pairs(), fed.cfg.R.Len(), fed.res.RPrime.Len())
	}
}

// TestFederationRefusalLeavesStateUnchanged: an insert the federation's
// relation refuses (a misshapen tuple, a duplicate key) or §3.2's
// insertion guard refuses (a tuple whose partner is matched already, or
// that matches two at once) leaves the relation, R′ and the pairs as
// they were, and the next insert lands where it would have.
func TestFederationRefusalLeavesStateUnchanged(t *testing.T) {
	idName := func(name string) *Relation {
		r, err := NewRelation(name, []Attribute{{Name: "id"}, {Name: "name"}}, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	sys := New().SetRelations(idName("R"), idName("S")).
		MapAttr("name", "name", "name").MapAttr("rid", "id", "").MapAttr("sid", "", "id").
		SetExtendedKey("name")
	fed, err := sys.Federate()
	if err != nil {
		t.Fatal(err)
	}
	tup := func(vals ...string) Tuple { return Tuple{String(vals[0]), String(vals[1])} }
	for _, st := range []Tuple{tup("s1", "A"), tup("s2", "B"), tup("s3", "B")} {
		if _, err := fed.InsertS(st); err != nil {
			t.Fatal(err)
		}
	}
	first, err := fed.InsertR(tup("r1", "A"))
	if err != nil || !slices.Equal(first, []Pair{{RIndex: 0, SIndex: 0}}) {
		t.Fatalf("InsertR r1 = %v, %v; want the pair (0,0)", first, err)
	}
	for _, c := range []struct {
		t     Tuple
		guard error
		text  string
	}{
		{Tuple{String("r2")}, nil, "relation R: arity 1 tuple, schema wants 2"},
		{tup("r1", "C"), nil, "key (id) violation"},
		{tup("r2", "A"), match.ErrUniqueness, "match: uniqueness violation: S tuple 0 already matched to R tuple 0"},
		{tup("r2", "B"), match.ErrUniqueness, "match: uniqueness violation: insert would match 2 tuples at once (unsound)"},
	} {
		_, err := fed.InsertR(c.t)
		if err == nil || !strings.Contains(err.Error(), c.text) || c.guard != nil && !errors.Is(err, c.guard) {
			t.Fatalf("InsertR %v = %v, want %q", c.t, err, c.text)
		}
		if fed.cfg.R.Len() != 1 || fed.res.RPrime.Len() != 1 || len(fed.Pairs()) != 1 {
			t.Fatalf("refused %v left a trace: %d R tuples, %d R' tuples, pairs %v", c.t, fed.cfg.R.Len(), fed.res.RPrime.Len(), fed.Pairs())
		}
	}
	if pairs, err := fed.InsertR(tup("r2", "C")); err != nil || len(pairs) != 0 {
		t.Fatalf("InsertR r2 = %v, %v", pairs, err)
	}
	if pairs, err := fed.InsertS(tup("s4", "C")); err != nil || !slices.Equal(pairs, []Pair{{RIndex: 1, SIndex: 3}}) {
		t.Fatalf("InsertS s4 = %v, %v; want the pair (1,3)", pairs, err)
	}
	if !slices.Equal(first, []Pair{{RIndex: 0, SIndex: 0}}) {
		t.Fatalf("a later insert rewrote the pairs an earlier one returned: %v", first)
	}
}

// TestFederationAddILFDMonotone: knowledge that completes a pair grows
// the table by it.
func TestFederationAddILFDMonotone(t *testing.T) {
	fds := paperdata.Example3ILFDs()
	sys := example3System()
	sys.ilfds = fds[:4] // only the uniform family
	fed, err := sys.Federate()
	if err != nil {
		t.Fatal(err)
	}
	before := len(fed.Pairs())
	if err := fed.AddILFD(fds[4]); err != nil { // I5 unlocks the TwinCities/Hunan pair
		t.Fatalf("AddILFD: %v", err)
	}
	if got := len(fed.Pairs()); got != before+1 {
		t.Errorf("pairs = %d, want %d", got, before+1)
	}
}

// TestFederationAddILFDRollback: knowledge that would break a matched
// pair is refused, and the federation keeps its knowledge and table.
func TestFederationAddILFDRollback(t *testing.T) {
	fed, err := example3System().Federate()
	if err != nil {
		t.Fatal(err)
	}
	before, knowledge := fed.Pairs(), len(fed.cfg.ILFDs)
	// Its Prop.-1 distinctness rule declares the matched Gyros pair
	// distinct.
	breaker, err := ParseILFD("speciality=Gyros -> cuisine=Turkish")
	if err != nil {
		t.Fatal(err)
	}
	err = fed.AddILFD(breaker)
	if !errors.Is(err, match.ErrConsistency) && (err == nil || !strings.Contains(err.Error(), "monotonicity")) {
		t.Fatalf("AddILFD of a breaker = %v, want a consistency or monotonicity refusal", err)
	}
	if !slices.Equal(fed.Pairs(), before) || len(fed.cfg.ILFDs) != knowledge {
		t.Fatalf("rollback failed: pairs %v, %d ILFDs; want %v, %d", fed.Pairs(), len(fed.cfg.ILFDs), before, knowledge)
	}
	// The rolled-back federation still takes inserts.
	if _, err := fed.InsertS(Tuple{String("VillageWok"), String("Cantonese"), String("Hennepin")}); err != nil {
		t.Fatalf("InsertS after a rollback: %v", err)
	}
}

func TestPossibleMatchesPublicAPI(t *testing.T) {
	sys := New()
	sys.SetRelations(paperdata.Table5R(), paperdata.Table5S())
	sys.MapAttr("name", "name", "name").
		MapAttr("cuisine", "cuisine", "").
		MapAttr("speciality", "", "speciality")
	sys.SetExtendedKey("name", "cuisine", "speciality")
	// No ILFDs: everything unmatched, residual possible matches remain.
	res, err := sys.Identify()
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	pm, err := res.PossibleMatches()
	if err != nil {
		t.Fatalf("PossibleMatches: %v", err)
	}
	if len(pm) == 0 {
		t.Error("expected residual possible matches without ILFDs")
	}
}
