package match

import (
	"slices"
	"strings"
	"testing"

	"entityid/internal/paperdata"
	"entityid/internal/relation"
	"entityid/internal/value"
)

func example3Result(t *testing.T) *Result {
	t.Helper()
	res, err := Build(example3Config())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return res
}

// TestIntegratedTableExample3 reproduces the prototype's
// print_integ_table output structure (§6.3): 3 merged rows + 2
// unmatched R rows + 1 unmatched S row = 6 rows.
func TestIntegratedTableExample3(t *testing.T) {
	res := example3Result(t)
	tab, err := res.Integrated()
	if err != nil {
		t.Fatalf("Integrated: %v", err)
	}
	if tab.Len() != 6 {
		t.Fatalf("integrated table has %d rows, want 6:\n%s", tab.Len(), res.RenderIntegrated("integrated table"))
	}
	merged, unmatchedR, unmatchedS := 0, 0, 0
	for i := range tab.Len() {
		rNull, sNull := tab.MustValue(i, "r_name").IsNull(), tab.MustValue(i, "s_name").IsNull()
		switch {
		case !rNull && !sNull:
			merged++
		case !rNull:
			unmatchedR++
		default:
			unmatchedS++
		}
	}
	if merged != 3 || unmatchedR != 2 || unmatchedS != 1 {
		t.Errorf("rows = %d merged, %d R-only, %d S-only; want 3/2/1", merged, unmatchedR, unmatchedS)
	}
	out := res.RenderIntegrated("integrated table")
	for _, want := range []string{
		"r_name", "s_name", "r_street", "s_county",
		"Anjuman", "VillageWok", "Wash.Ave.", "null",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderIntegrated missing %q:\n%s", want, out)
		}
	}
	// VillageWok row: everything on the S side NULL.
	found := false
	for i := range tab.Len() {
		name := tab.MustValue(i, "r_name")
		if !name.IsNull() && name.Str() == "VillageWok" {
			found = true
			if v := tab.MustValue(i, "s_name"); !v.IsNull() {
				t.Errorf("VillageWok s_name = %v, want NULL", v)
			}
			if v := tab.MustValue(i, "s_county"); !v.IsNull() {
				t.Errorf("VillageWok s_county = %v, want NULL", v)
			}
		}
	}
	if !found {
		t.Error("VillageWok row missing")
	}
	// Sichuan TwinCities: unmatched S row with NULL r side.
	found = false
	for i := range tab.Len() {
		spec := tab.MustValue(i, "s_speciality")
		if !spec.IsNull() && spec.Str() == "Sichuan" {
			found = true
			if v := tab.MustValue(i, "r_name"); !v.IsNull() {
				t.Errorf("Sichuan r_name = %v, want NULL", v)
			}
			// Its derived cuisine survives integration.
			if v := tab.MustValue(i, "s_cuisine"); v.IsNull() || v.Str() != "Chinese" {
				t.Errorf("Sichuan s_cuisine = %v, want Chinese", v)
			}
		}
	}
	if !found {
		t.Error("Sichuan row missing")
	}
}

// TestCoalescedKey reads each T_RS row's extended key, R′'s value where
// it has one and S′'s otherwise: three values per row, and none NULL on a
// merged row, where both sides are non-NULL — that is what made the pair
// match.
func TestCoalescedKey(t *testing.T) {
	res := example3Result(t)
	tab, err := res.Integrated()
	if err != nil {
		t.Fatalf("Integrated: %v", err)
	}
	for i := range tab.Len() {
		merged := !tab.MustValue(i, "r_name").IsNull() && !tab.MustValue(i, "s_name").IsNull()
		var key []value.Value
		for _, a := range res.ExtKey() {
			r, s := tab.MustValue(i, PrefixR+a), tab.MustValue(i, PrefixS+a)
			if merged && (r.IsNull() || s.IsNull()) {
				t.Errorf("merged row %d: %s NULL on a side", i, a)
			}
			if r.IsNull() {
				r = s
			}
			key = append(key, r)
		}
		if len(key) != 3 {
			t.Fatalf("row %d: key len = %d, want 3", i, len(key))
		}
		if merged && slices.ContainsFunc(key, value.Value.IsNull) {
			t.Errorf("merged row %d: coalesced key %v has a NULL", i, key)
		}
	}
}

// TestIntegratedOneRowPerPair holds T_RS to the join it is on an unsound
// table: under the §6.3 key {name} every TwinCities tuple of R matches
// both of S's, and each of the four pairs is a row of its own, so every
// S′ tuple appears in some row.
func TestIntegratedOneRowPerPair(t *testing.T) {
	cfg := example3Config()
	cfg.ExtKey = []string{"name"}
	res, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	tab, err := res.Integrated()
	if err != nil {
		t.Fatalf("Integrated: %v", err)
	}
	// 6 pairs (4 TwinCities, It'sGreek, Anjuman) + VillageWok alone.
	if res.MT.Len() != 6 || tab.Len() != 7 {
		t.Fatalf("MT %d pairs, T_RS %d rows; want 6 and 7:\n%s",
			res.MT.Len(), tab.Len(), res.RenderIntegrated("integrated table"))
	}
	rArity := res.RPrime.Schema().Arity()
	for p := range res.MT.All() {
		want := slices.Concat(res.RPrime.Tuple(p.RIndex), res.SPrime.Tuple(p.SIndex))
		if !slices.ContainsFunc(tab.Tuples(), func(row relation.Tuple) bool { return sameRow(row, want) }) {
			t.Errorf("pair (%d,%d) has no row", p.RIndex, p.SIndex)
		}
	}
	for j, st := range res.SPrime.Tuples() {
		if !slices.ContainsFunc(tab.Tuples(), func(row relation.Tuple) bool { return sameRow(row[rArity:], st) }) {
			t.Errorf("S′ tuple %d %v appears in no row", j, st)
		}
	}
}

func sameRow(a, b relation.Tuple) bool {
	return slices.EqualFunc(a, b, value.Identical)
}

// TestPossibleMatches checks the §4.1 residual-match semantics: the
// unmatched R rows (TwinCities-Indian with NULL speciality, VillageWok
// with NULL speciality) and the unmatched S row (TwinCities-Sichuan)
// possibly match when their non-NULL extended-key values agree.
func TestPossibleMatches(t *testing.T) {
	res := example3Result(t)
	pm, err := res.PossibleMatches()
	if err != nil {
		t.Fatalf("PossibleMatches: %v", err)
	}
	// TwinCities-Indian (R) vs TwinCities-Sichuan-Chinese (S): cuisine
	// Indian vs Chinese conflict -> NOT a possible match.
	// VillageWok (R) vs TwinCities-Sichuan (S): name conflict -> no.
	// So no residual possible matches are expected in Example 3.
	if len(pm) != 0 {
		t.Errorf("unexpected possible matches %v", pm)
	}
}

func TestPossibleMatchesWithCompatibleNulls(t *testing.T) {
	// Drop the ILFDs so extended-key attributes stay NULL; then
	// same-name rows from opposite sides become possible matches.
	res, err := Build(Config{
		R: paperdata.Table5R(),
		S: paperdata.Table5S(),
		Attrs: []AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "cuisine", R: "cuisine", S: ""},
			{Name: "speciality", R: "", S: "speciality"},
		},
		ExtKey: paperdata.Example3ExtendedKey(),
		// No ILFDs: nothing matches, everything is residual.
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := res.Integrated()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 9 { // 5 R rows + 4 S rows, no merges
		t.Fatalf("rows = %d, want 9", tab.Len())
	}
	pm, err := res.PossibleMatches()
	if err != nil {
		t.Fatal(err)
	}
	// VillageWok (R) has no same-name S row: candidates are TwinCities
	// (2 R rows × 2 S rows, minus cuisine conflicts unavailable since S
	// cuisine is NULL => all 4 compatible), It'sGreek (1×1), Anjuman
	// (1×1). Name conflicts exclude the rest. Rows are numbered as
	// Integrated lays them out: R′'s five, then S′'s four.
	want := [][2]int{{0, 5}, {0, 6}, {1, 5}, {1, 6}, {2, 7}, {3, 8}}
	if len(pm) != len(want) {
		t.Fatalf("possible matches = %v, want %v", pm, want)
	}
	for n, p := range pm {
		if p != want[n] {
			t.Errorf("possible match %d = %v, want %v", n, p, want[n])
		}
		if a, b := tab.MustValue(p[0], "r_name"), tab.MustValue(p[1], "s_name"); !value.Equal(a, b) {
			t.Errorf("possible match with different names: %v vs %v", a, b)
		}
	}
}

// TestPossibleMatchesConflictingPair: a matched pair whose extended-key
// values conflict (here asserted by hand, as a user assertion may) makes
// the residual relation undefined, and the error names its T_RS row.
func TestPossibleMatchesConflictingPair(t *testing.T) {
	res := example3Result(t)
	res.MT.Add(Pair{RIndex: 4, SIndex: 1}) // VillageWok × TwinCities/Sichuan
	_, err := res.PossibleMatches()
	const want = `integrate: row 4: conflicting extended-key values VillageWok vs TwinCities for "name"`
	if err == nil || err.Error() != want {
		t.Errorf("PossibleMatches error = %v, want %s", err, want)
	}
}

func TestRenderIntegratedSorted(t *testing.T) {
	res := example3Result(t)
	out := res.RenderIntegrated("integrated table")
	// NULL sorts first: the S-only row (r_name NULL) is the first data row.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 {
		t.Fatalf("short render:\n%s", out)
	}
	if !strings.HasPrefix(lines[3], "null") {
		t.Errorf("first data row does not start with null:\n%s", out)
	}
}
