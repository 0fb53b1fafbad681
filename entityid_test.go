package entityid

import (
	"fmt"
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
