package resolve

import (
	"strings"
	"testing"

	"entityid/internal/integrate"
	"entityid/internal/match"
	"entityid/internal/paperdata"
	"entityid/internal/value"
)

func example3Table(t *testing.T) *integrate.Table {
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
	tab, err := integrate.Build(res)
	if err != nil {
		t.Fatalf("integrate.Build: %v", err)
	}
	return tab
}

// TestMergeExample3 collapses the paper's integrated table into the
// final one-column-per-attribute relation: 6 entities, each with a
// single name/cuisine/speciality/street/county.
func TestMergeExample3(t *testing.T) {
	tab := example3Table(t)
	merged, conflicts, err := Merge(tab, "Restaurant", AutoSpecs(tab))
	if err != nil {
		t.Fatalf("Merge: %v", err)
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

func TestMergeStrategies(t *testing.T) {
	tab := example3Table(t)
	// Force a disagreement: r_name vs s_county is nonsense but legal —
	// use Coalesce on (r_cuisine, s_cuisine) which agree, then a
	// deliberate mismatched pair (r_name, s_speciality).
	specs := []Spec{
		{Name: "x", R: "r_name", S: "s_speciality", Strategy: Coalesce},
	}
	merged, conflicts, err := Merge(tab, "M", specs)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if len(conflicts) == 0 {
		t.Fatal("expected conflicts for name-vs-speciality merge")
	}
	// Coalesce keeps the R side on conflict.
	c := conflicts[0]
	if !value.Equal(c.Resolved, c.RV) {
		t.Errorf("Coalesce kept %v, want R side %v", c.Resolved, c.RV)
	}
	if !strings.Contains(c.Error(), "kept") {
		t.Errorf("conflict message = %q", c.Error())
	}
	_ = merged

	// PreferS keeps the S side and reports no conflict.
	merged, conflicts, err = Merge(tab, "M", []Spec{
		{Name: "x", R: "r_name", S: "s_speciality", Strategy: PreferS},
	})
	if err != nil || len(conflicts) != 0 {
		t.Fatalf("PreferS: %v %v", err, conflicts)
	}
	// Row for the matched Anjuman pair: S side speciality wins.
	foundMughalai := false
	for i := 0; i < merged.Len(); i++ {
		if v := merged.MustValue(i, "x"); !v.IsNull() && v.Str() == "Mughalai" {
			foundMughalai = true
		}
	}
	if !foundMughalai {
		t.Error("PreferS did not keep the S value")
	}

	// Strict fails outright.
	_, _, err = Merge(tab, "M", []Spec{
		{Name: "x", R: "r_name", S: "s_speciality", Strategy: Strict},
	})
	if err == nil {
		t.Error("Strict merge succeeded despite disagreement")
	}
}

func TestMergeValidation(t *testing.T) {
	tab := example3Table(t)
	cases := []struct {
		name  string
		specs []Spec
	}{
		{"empty specs", nil},
		{"empty name", []Spec{{Name: ""}}},
		{"unknown R col", []Spec{{Name: "x", R: "nope"}}},
		{"unknown S col", []Spec{{Name: "x", S: "nope"}}},
		{"no sides", []Spec{{Name: "x"}}},
		{"dup name", []Spec{{Name: "x", R: "r_name"}, {Name: "x", R: "r_cuisine"}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := Merge(tab, "M", c.specs); err == nil {
				t.Errorf("Merge(%v) succeeded", c.specs)
			}
		})
	}
}

func TestAutoSpecs(t *testing.T) {
	tab := example3Table(t)
	specs := AutoSpecs(tab)
	// Both sides carry all five integrated attributes after extension.
	if len(specs) != 5 {
		t.Fatalf("AutoSpecs = %d entries: %+v", len(specs), specs)
	}
	for _, sp := range specs {
		if sp.R == "" || sp.S == "" {
			t.Errorf("spec %q not two-sided: %+v", sp.Name, sp)
		}
	}
}

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{
		Coalesce: "coalesce", PreferR: "prefer-r", PreferS: "prefer-s",
		Strict: "strict", Strategy(9): "strategy(9)",
	}
	for st, w := range want {
		if got := st.String(); got != w {
			t.Errorf("Strategy(%d) = %q, want %q", int(st), got, w)
		}
	}
}

func TestResolveOneTable(t *testing.T) {
	a, b := value.String("a"), value.String("b")
	cases := []struct {
		st       Strategy
		rv, sv   value.Value
		want     value.Value
		conflict bool
	}{
		{Coalesce, value.Null, b, b, false},
		{Coalesce, a, value.Null, a, false},
		{Coalesce, a, a, a, false},
		{Coalesce, a, b, a, true},
		{PreferR, a, b, a, false},
		{PreferR, value.Null, b, b, false},
		{PreferS, a, b, b, false},
		{PreferS, a, value.Null, a, false},
		{Strict, a, b, a, true},
		{Strict, value.Null, value.Null, value.Null, false},
	}
	for _, c := range cases {
		got, conflict := resolveOne(c.st, c.rv, c.sv)
		if !value.Identical(got, c.want) || conflict != c.conflict {
			t.Errorf("resolveOne(%v, %v, %v) = %v, %t; want %v, %t",
				c.st, c.rv, c.sv, got, conflict, c.want, c.conflict)
		}
	}
}

func TestReduce(t *testing.T) {
	v := func(s string) value.Value { return value.String(s) }
	cases := []struct {
		name       string
		st         Strategy
		vals       []value.Value
		want       value.Value
		conflicted bool
		wantErr    bool
	}{
		{name: "coalesce-first-non-null", st: Coalesce, vals: []value.Value{value.Null, v("a"), value.Null}, want: v("a")},
		{name: "coalesce-agreement", st: Coalesce, vals: []value.Value{v("a"), v("a")}, want: v("a")},
		{name: "coalesce-conflict-keeps-first", st: Coalesce, vals: []value.Value{v("a"), v("b"), v("c")}, want: v("a"), conflicted: true},
		{name: "prefer-r-first", st: PreferR, vals: []value.Value{value.Null, v("a"), v("b")}, want: v("a")},
		{name: "prefer-s-last", st: PreferS, vals: []value.Value{v("a"), v("b"), value.Null}, want: v("b")},
		{name: "strict-fails", st: Strict, vals: []value.Value{v("a"), v("b")}, wantErr: true},
		{name: "empty", st: Coalesce, vals: nil, want: value.Null},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, conflicted, err := Reduce(tc.st, tc.vals...)
			if tc.wantErr {
				if err == nil {
					t.Fatal("no error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !value.Identical(got, tc.want) || conflicted != tc.conflicted {
				t.Fatalf("Reduce = %v (conflicted %v), want %v (%v)", got, conflicted, tc.want, tc.conflicted)
			}
		})
	}
}
