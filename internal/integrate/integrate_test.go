package integrate

import (
	"strings"
	"testing"

	"entityid/internal/match"
	"entityid/internal/paperdata"
	"entityid/internal/value"
)

func example3Result(t *testing.T) *match.Result {
	t.Helper()
	res, err := match.Build(match.Config{
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
	})
	if err != nil {
		t.Fatalf("match.Build: %v", err)
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
	tab, err := Build(res)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if tab.Len() != 6 {
		t.Fatalf("integrated table has %d rows, want 6:\n%s", tab.Len(), tab.Render("integrated table"))
	}
	merged, unmatchedR, unmatchedS := 0, 0, 0
	for i := range tab.Rows {
		switch {
		case tab.Merged(i):
			merged++
		case tab.Rows[i].RIndex >= 0:
			unmatchedR++
		default:
			unmatchedS++
		}
	}
	if merged != 3 || unmatchedR != 2 || unmatchedS != 1 {
		t.Errorf("rows = %d merged, %d R-only, %d S-only; want 3/2/1", merged, unmatchedR, unmatchedS)
	}
	// The prototype's exact rows: check the anjuman merged row and the
	// villagewok unmatched row.
	out := tab.Render("integrated table")
	for _, want := range []string{
		"r_name", "s_name", "r_street", "s_county",
		"Anjuman", "VillageWok", "Wash.Ave.", "null",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	// VillageWok row: everything on the S side NULL.
	found := false
	for i := 0; i < tab.Rel.Len(); i++ {
		name := tab.Rel.MustValue(i, "r_name")
		if !name.IsNull() && name.Str() == "VillageWok" {
			found = true
			if v := tab.Rel.MustValue(i, "s_name"); !v.IsNull() {
				t.Errorf("VillageWok s_name = %v, want NULL", v)
			}
			if v := tab.Rel.MustValue(i, "s_county"); !v.IsNull() {
				t.Errorf("VillageWok s_county = %v, want NULL", v)
			}
		}
	}
	if !found {
		t.Error("VillageWok row missing")
	}
	// Sichuan TwinCities: unmatched S row with NULL r side.
	found = false
	for i := 0; i < tab.Rel.Len(); i++ {
		spec := tab.Rel.MustValue(i, "s_speciality")
		if !spec.IsNull() && spec.Str() == "Sichuan" {
			found = true
			if v := tab.Rel.MustValue(i, "r_name"); !v.IsNull() {
				t.Errorf("Sichuan r_name = %v, want NULL", v)
			}
			// Its derived cuisine survives integration.
			if v := tab.Rel.MustValue(i, "s_cuisine"); v.IsNull() || v.Str() != "Chinese" {
				t.Errorf("Sichuan s_cuisine = %v, want Chinese", v)
			}
		}
	}
	if !found {
		t.Error("Sichuan row missing")
	}
}

func TestCoalescedKey(t *testing.T) {
	res := example3Result(t)
	tab, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tab.Len(); i++ {
		key, err := tab.CoalescedKey(i)
		if err != nil {
			t.Fatalf("CoalescedKey(%d): %v", i, err)
		}
		if len(key) != 3 {
			t.Fatalf("key len = %d", len(key))
		}
		// Merged rows have a fully non-NULL coalesced key (that is what
		// made them match).
		if tab.Merged(i) {
			for n, v := range key {
				if v.IsNull() {
					t.Errorf("merged row %d: key[%d] NULL", i, n)
				}
			}
		}
	}
}

// TestPossibleMatches checks the §4.1 residual-match semantics: the
// unmatched R rows (TwinCities-Indian with NULL speciality, VillageWok
// with NULL speciality) and the unmatched S row (TwinCities-Sichuan)
// possibly match when their non-NULL extended-key values agree.
func TestPossibleMatches(t *testing.T) {
	res := example3Result(t)
	tab, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := tab.PossibleMatches()
	if err != nil {
		t.Fatalf("PossibleMatches: %v", err)
	}
	// TwinCities-Indian (R) vs TwinCities-Sichuan-Chinese (S): cuisine
	// Indian vs Chinese conflict -> NOT a possible match.
	// VillageWok (R) vs TwinCities-Sichuan (S): name conflict -> no.
	// So no residual possible matches are expected in Example 3.
	for _, p := range pm {
		n1 := tab.Rel.MustValue(p[0], "r_name")
		n2 := tab.Rel.MustValue(p[1], "s_name")
		t.Errorf("unexpected possible match between rows %d (%v) and %d (%v)", p[0], n1, p[1], n2)
	}
}

func TestPossibleMatchesWithCompatibleNulls(t *testing.T) {
	// Drop the ILFDs so extended-key attributes stay NULL; then
	// same-name rows from opposite sides become possible matches.
	res, err := match.Build(match.Config{
		R: paperdata.Table5R(),
		S: paperdata.Table5S(),
		Attrs: []match.AttrMap{
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
	tab, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 9 { // 5 R rows + 4 S rows, no merges
		t.Fatalf("rows = %d, want 9", tab.Len())
	}
	pm, err := tab.PossibleMatches()
	if err != nil {
		t.Fatal(err)
	}
	// VillageWok (R) has no same-name S row: candidates are TwinCities
	// (2 R rows × 2 S rows, minus cuisine conflicts unavailable since S
	// cuisine is NULL => all 4 compatible), It'sGreek (1×1), Anjuman
	// (1×1). Name conflicts exclude the rest.
	if len(pm) != 6 {
		t.Errorf("possible matches = %d, want 6", len(pm))
	}
	for _, p := range pm {
		a, _ := tab.CoalescedKey(p[0])
		b, _ := tab.CoalescedKey(p[1])
		if !value.Equal(a[0], b[0]) {
			t.Errorf("possible match with different names: %v vs %v", a[0], b[0])
		}
	}
}

func TestRenderSorted(t *testing.T) {
	res := example3Result(t)
	tab, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Render("integrated table")
	// NULL sorts first: the S-only row (r_name NULL) is the first data row.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 {
		t.Fatalf("short render:\n%s", out)
	}
	if !strings.HasPrefix(lines[3], "null") {
		t.Errorf("first data row does not start with null:\n%s", out)
	}
}
