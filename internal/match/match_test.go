package match

import (
	"errors"
	"strings"
	"testing"

	"entityid/internal/derive"
	"entityid/internal/ilfd"
	"entityid/internal/paperdata"
	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// example3Config is the full Example 3 configuration (Tables 5–7).
func example3Config() Config {
	return Config{
		R: paperdata.Table5R(),
		S: paperdata.Table5S(),
		Attrs: []AttrMap{
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

// TestBuildTable7 reproduces the paper's Table 7: the matching table for
// Example 3 contains exactly the TwinCities/Hunan, It'sGreek/Gyros and
// Anjuman/Mughalai pairs.
func TestBuildTable7(t *testing.T) {
	res, err := Build(example3Config())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.MT.Len() != 3 {
		t.Fatalf("MT has %d pairs, want 3\n%s", res.MT.Len(), res.RenderMT("matching table"))
	}
	// Pin the exact pairs via key values.
	want := paperdata.Table7Expected()
	for _, w := range want {
		found := false
		for p := range res.MT.All() {
			rName := res.RPrime.MustValue(p.RIndex, "name").Str()
			rCui := res.RPrime.MustValue(p.RIndex, "cuisine").Str()
			sName := res.SPrime.MustValue(p.SIndex, "name").Str()
			sSpec := res.SPrime.MustValue(p.SIndex, "speciality").Str()
			if rName == w[0] && rCui == w[1] && sName == w[2] && sSpec == w[3] {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("expected Table 7 row %v missing\n%s", w, res.RenderMT("matching table"))
		}
	}
}

// TestBuildTable6 pins the extended relations against the paper's
// Table 6 fixtures (as sets of (name, cuisine, speciality) /
// (name, speciality, cuisine) projections).
func TestBuildTable6(t *testing.T) {
	res, err := Build(example3Config())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	wantR := paperdata.Table6RPrime()
	for i := 0; i < res.RPrime.Len(); i++ {
		name := res.RPrime.MustValue(i, "name")
		cui := res.RPrime.MustValue(i, "cuisine")
		j := wantR.LookupKey(name, cui)
		if j < 0 {
			t.Errorf("R' row (%v,%v) not in Table 6", name, cui)
			continue
		}
		if !value.Identical(res.RPrime.MustValue(i, "speciality"), wantR.MustValue(j, "speciality")) {
			t.Errorf("R' (%v,%v): speciality = %v, want %v", name, cui,
				res.RPrime.MustValue(i, "speciality"), wantR.MustValue(j, "speciality"))
		}
	}
	wantS := paperdata.Table6SPrime()
	for i := 0; i < res.SPrime.Len(); i++ {
		name := res.SPrime.MustValue(i, "name")
		spec := res.SPrime.MustValue(i, "speciality")
		j := wantS.LookupKey(name, spec)
		if j < 0 {
			t.Errorf("S' row (%v,%v) not in Table 6", name, spec)
			continue
		}
		if !value.Identical(res.SPrime.MustValue(i, "cuisine"), wantS.MustValue(j, "cuisine")) {
			t.Errorf("S' (%v,%v): cuisine = %v, want %v", name, spec,
				res.SPrime.MustValue(i, "cuisine"), wantS.MustValue(j, "cuisine"))
		}
	}
}

// TestUnsoundExtendedKey reproduces the prototype's second session
// (§6.3): with extended key {name} alone, TwinCities matches two S
// tuples and verification reports an unsound matching result.
func TestUnsoundExtendedKey(t *testing.T) {
	cfg := example3Config()
	cfg.ExtKey = []string{"name"}
	res, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	err = res.Verify()
	if err == nil {
		t.Fatal("Verify accepted the unsound {name} extended key")
	}
	if !errors.Is(err, ErrUniqueness) || !strings.Contains(err.Error(), "uniqueness violation") {
		t.Errorf("Verify error = %v, want it typed ErrUniqueness", err)
	}
}

// TestExample2Table3 reproduces Tables 2–3: with extended key
// {name, cuisine} and ILFD I4, R's Indian TwinCities matches S's
// Mughalai TwinCities.
func TestExample2Table3(t *testing.T) {
	cfg := Config{
		R: paperdata.Table2R(),
		S: paperdata.Table2S(),
		Attrs: []AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "cuisine", R: "cuisine", S: ""},
			{Name: "speciality", R: "", S: "speciality"},
			{Name: "street", R: "street", S: ""},
			{Name: "city", R: "", S: "city"},
		},
		ExtKey: []string{"name", "cuisine"},
		ILFDs:  ilfd.Set{paperdata.Example2ILFD()},
	}
	res, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.MT.Len() != 1 {
		t.Fatalf("MT has %d pairs, want 1", res.MT.Len())
	}
	p := res.MT.At(0)
	if got := res.RPrime.MustValue(p.RIndex, "cuisine").Str(); got != "Indian" {
		t.Errorf("matched R cuisine = %q, want Indian (Table 3)", got)
	}
	if got := res.SPrime.MustValue(p.SIndex, "speciality").Str(); got != "Mughalai" {
		t.Errorf("matched S speciality = %q", got)
	}
}

// TestTable4NegativePair reproduces Table 4: the Prop.-1 distinctness
// rule from I4 declares R's Chinese TwinCities distinct from S's
// Mughalai TwinCities.
func TestTable4NegativePair(t *testing.T) {
	cfg := Config{
		R: paperdata.Table2R(),
		S: paperdata.Table2S(),
		Attrs: []AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "cuisine", R: "cuisine", S: ""},
			{Name: "speciality", R: "", S: "speciality"},
		},
		ExtKey: []string{"name", "cuisine"},
		ILFDs:  ilfd.Set{paperdata.Example2ILFD()},
	}
	res, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Prop. 1 rule direction: ILFD speciality=Mughalai → cuisine=Indian
	// gives e1.speciality=Mughalai ∧ e2.cuisine≠Indian → e1 ≢ e2. Here e1
	// ranges over the ILFD's home relation: S has speciality. Classify
	// is defined on (R index, S index); the rule must fire for the pair
	// (Chinese TwinCities, Mughalai TwinCities).
	if v := res.Classify(0, 0); v != NotMatching {
		t.Errorf("Classify(Chinese TwinCities, Mughalai TwinCities) = %v, want not-matching", v)
	}
	// The Indian TwinCities matches instead.
	if v := res.Classify(1, 0); v != Matching {
		t.Errorf("Classify(Indian TwinCities, Mughalai TwinCities) = %v, want matching", v)
	}
	neg := res.NegativePairs(0)
	if len(neg) == 0 {
		t.Error("NegativePairs empty; Table 4 pair missing")
	}
}

func TestCountsPartition(t *testing.T) {
	res, err := Build(example3Config())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m, n, u := res.Counts()
	total := res.RPrime.Len() * res.SPrime.Len()
	if m+n+u != total {
		t.Errorf("partition %d+%d+%d != %d", m, n, u, total)
	}
	if m != 3 {
		t.Errorf("matching = %d, want 3", m)
	}
	if u == 0 {
		t.Error("expected some undetermined pairs in Example 3 (completeness not achievable)")
	}
	// Limits respected.
	if got := res.UndeterminedPairs(1); len(got) != 1 {
		t.Errorf("UndeterminedPairs(1) = %d", len(got))
	}
	if got := res.NegativePairs(1); len(got) != 1 {
		t.Errorf("NegativePairs(1) = %d", len(got))
	}
}

// TestMonotonicity checks §3.3: adding ILFDs only grows the matching and
// non-matching sets and shrinks the undetermined set.
func TestMonotonicity(t *testing.T) {
	all := paperdata.Example3ILFDs()
	var prevM, prevN, prevU int
	first := true
	for k := 0; k <= len(all); k++ {
		cfg := example3Config()
		cfg.ILFDs = all[:k]
		res, err := Build(cfg)
		if err != nil {
			t.Fatalf("Build with %d ILFDs: %v", k, err)
		}
		m, n, u := res.Counts()
		if !first {
			if m < prevM {
				t.Errorf("matching shrank: %d -> %d at %d ILFDs", prevM, m, k)
			}
			if n < prevN {
				t.Errorf("non-matching shrank: %d -> %d at %d ILFDs", prevN, n, k)
			}
			if u > prevU {
				t.Errorf("undetermined grew: %d -> %d at %d ILFDs", prevU, u, k)
			}
		}
		prevM, prevN, prevU, first = m, n, u, false
	}
	if prevM != 3 {
		t.Errorf("final matching = %d, want 3", prevM)
	}
}

// TestFigure2Soundness reproduces the Figure 2 scenario: without the
// domain attribute, attribute-value equivalence would wrongly match two
// distinct entities; with the domain attribute and a distinctness rule
// ("different domains model disjoint restaurant sets"), the extended-key
// match is blocked from declaring them identical, and the pair is
// (correctly) not in the matching table.
func TestFigure2Soundness(t *testing.T) {
	// Naive setup: extended key {name, cuisine} matches the two tuples —
	// this is the unsound conclusion the paper warns about (both tuples
	// model different VillageWok branches).
	naive := Config{
		R: paperdata.Figure2R(),
		S: paperdata.Figure2S(),
		Attrs: []AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "cuisine", R: "cuisine", S: "cuisine"},
		},
		ExtKey: []string{"name", "cuisine"},
	}
	res, err := Build(naive)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if res.MT.Len() != 1 {
		t.Fatalf("naive MT = %d pairs, want the (wrong) 1", res.MT.Len())
	}
	// Domain-attribute fix: the rule "e1.domain=DB1 ∧ e2.domain=DB2 →
	// e1 ≢ e2" (asserted by the DBA who knows the DBs model different
	// subsets) makes verification fail: the matched pair violates
	// consistency, exposing the unsoundness.
	fixed := Config{
		R: paperdata.Figure2RWithDomain(),
		S: paperdata.Figure2SWithDomain(),
		Attrs: []AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "cuisine", R: "cuisine", S: "cuisine"},
			{Name: "domain", R: "domain", S: "domain"},
		},
		ExtKey: []string{"name", "cuisine"},
		Distinct: []rules.DistinctnessRule{
			rules.MustNewDistinctness("disjoint-domains", []rules.Predicate{
				{Left: rules.Attr1("domain"), Op: rules.Eq, Right: rules.Const(value.String("DB1"))},
				{Left: rules.Attr2("domain"), Op: rules.Eq, Right: rules.Const(value.String("DB2"))},
			}),
		},
	}
	// The engine and the naive reference word and type it alike: callers
	// classify with errors.Is, not by reading the text.
	for _, naive := range []bool{false, true} {
		fixed.Naive = naive
		res2, err := Build(fixed)
		if err != nil {
			t.Fatalf("Build fixed: %v", err)
		}
		err = res2.Verify()
		if !errors.Is(err, ErrConsistency) || !strings.Contains(err.Error(), "consistency violation") {
			t.Errorf("naive=%v: Verify = %v, want a typed consistency violation exposing Figure 2's unsoundness", naive, err)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	good := example3Config()
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"nil R", func(c *Config) { c.R = nil }, "must both be set"},
		{"empty key", func(c *Config) { c.ExtKey = nil }, "empty extended key"},
		{"empty map name", func(c *Config) { c.Attrs = append(c.Attrs, AttrMap{}) }, "empty integrated name"},
		{"dup map", func(c *Config) { c.Attrs = append(c.Attrs, AttrMap{Name: "name", R: "name", S: "name"}) }, "duplicate"},
		{"bad R attr", func(c *Config) { c.Attrs[0].R = "zzz" }, "no attribute"},
		{"bad S attr", func(c *Config) { c.Attrs[0].S = "zzz" }, "no attribute"},
		{"key not mapped", func(c *Config) { c.ExtKey = []string{"unmapped"} }, "not in attribute map"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := good
			cfg.Attrs = append([]AttrMap(nil), good.Attrs...)
			cfg.ExtKey = append([]string(nil), good.ExtKey...)
			c.mutate(&cfg)
			_, err := Build(cfg)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Build error = %v, want contains %q", err, c.want)
			}
		})
	}
}

func TestBuildKindMismatch(t *testing.T) {
	r := relation.New(schema.MustNew("R", []schema.Attribute{
		{Name: "id", Kind: value.KindInt},
	}, []string{"id"}))
	s := relation.New(schema.MustNew("S", []schema.Attribute{
		{Name: "id", Kind: value.KindString},
	}, []string{"id"}))
	_, err := Build(Config{
		R: r, S: s,
		Attrs:  []AttrMap{{Name: "id", R: "id", S: "id"}},
		ExtKey: []string{"id"},
	})
	if err == nil || !strings.Contains(err.Error(), "kind mismatch") {
		t.Errorf("Build = %v, want kind mismatch", err)
	}
}

func TestRenamedAttributes(t *testing.T) {
	// Source relations with database-local attribute names; the map
	// renames to integrated names, and ILFDs are written over the
	// integrated names.
	r := relation.New(schema.MustNew("R", []schema.Attribute{
		{Name: "r_nm", Kind: value.KindString},
		{Name: "r_cui", Kind: value.KindString},
	}, []string{"r_nm", "r_cui"}))
	r.MustInsert(value.String("wok"), value.String("chinese"))
	s := relation.New(schema.MustNew("S", []schema.Attribute{
		{Name: "s_nm", Kind: value.KindString},
		{Name: "s_spec", Kind: value.KindString},
	}, []string{"s_nm", "s_spec"}))
	s.MustInsert(value.String("wok"), value.String("hunan"))

	res, err := Build(Config{
		R: r, S: s,
		Attrs: []AttrMap{
			{Name: "name", R: "r_nm", S: "s_nm"},
			{Name: "cuisine", R: "r_cui", S: ""},
			{Name: "speciality", R: "", S: "s_spec"},
		},
		ExtKey: []string{"name", "cuisine"},
		ILFDs:  ilfd.Set{ilfd.MustParse("speciality=hunan -> cuisine=chinese")},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if res.MT.Len() != 1 {
		t.Fatalf("MT = %d pairs, want 1", res.MT.Len())
	}
	// Extended relations carry integrated names.
	if !res.RPrime.Schema().Has("name") || res.RPrime.Schema().Has("r_nm") {
		t.Errorf("R' schema = %v", res.RPrime.Schema())
	}
	// Keys were renamed too.
	if !res.RPrime.Schema().IsKey([]string{"name", "cuisine"}) {
		t.Errorf("R' key = %v", res.RPrime.Schema().Keys())
	}
}

func TestFixpointConflictSurfaced(t *testing.T) {
	cfg := example3Config()
	cfg.DeriveMode = derive.Fixpoint
	// Add an ILFD that contradicts I1 for Hunan.
	cfg.ILFDs = append(append(ilfd.Set{}, cfg.ILFDs...),
		ilfd.MustParse("speciality=Hunan -> cuisine=Thai"))
	res, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(res.Conflicts) == 0 {
		t.Error("fixpoint mode did not surface the contradictory derivation")
	}
}

func TestDisableProp1(t *testing.T) {
	cfg := example3Config()
	cfg.DisableProp1 = true
	res, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(res.Distinct()) != 0 {
		t.Errorf("Distinct() = %d rules with Prop 1 disabled", len(res.Distinct()))
	}
	_, n, _ := res.Counts()
	if n != 0 {
		t.Errorf("non-matching = %d without distinctness rules", n)
	}
}

// TestExtraIdentityRule exercises the paper's rule r1 (§3.2): "two
// Chinese restaurants are the same entity" — valid only when each
// relation holds at most one Chinese restaurant.
func TestExtraIdentityRule(t *testing.T) {
	r1 := rules.MustNewIdentity("r1", []rules.Predicate{
		{Left: rules.Attr1("cuisine"), Op: rules.Eq, Right: rules.Const(value.String("Chinese"))},
		{Left: rules.Attr2("cuisine"), Op: rules.Eq, Right: rules.Const(value.String("Chinese"))},
	})

	// Positive case: one Chinese restaurant per relation, different
	// names — only r1 can match them.
	r := relation.New(schema.MustNew("R", []schema.Attribute{
		{Name: "name"}, {Name: "cuisine"},
	}, []string{"name"}))
	r.MustInsert(value.String("wok-east"), value.String("Chinese"))
	r.MustInsert(value.String("olympia"), value.String("Greek"))
	s := relation.New(schema.MustNew("S", []schema.Attribute{
		{Name: "name"}, {Name: "cuisine"},
	}, []string{"name"}))
	s.MustInsert(value.String("wok-west"), value.String("Chinese"))

	cfg := Config{
		R: r, S: s,
		Attrs: []AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "cuisine", R: "cuisine", S: "cuisine"},
		},
		ExtKey:   []string{"name", "cuisine"},
		Identity: []rules.IdentityRule{r1},
	}
	res, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.MT.Len() != 1 || !res.MT.Contains(0, 0) {
		t.Errorf("MT = %v, want the r1 pair (0,0)", res.MT.Pairs(0, res.MT.Len()))
	}

	// Negative case: Example 3's R holds two Chinese restaurants, so r1
	// violates the §3.2 uniqueness requirement and Verify rejects it.
	cfg3 := example3Config()
	cfg3.Identity = []rules.IdentityRule{r1}
	res3, err := Build(cfg3)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	err = res3.Verify()
	if err == nil || !strings.Contains(err.Error(), "uniqueness violation") {
		t.Errorf("Verify = %v, want uniqueness violation (two Chinese restaurants in R)", err)
	}
}

func TestVerdictString(t *testing.T) {
	if Matching.String() != "matching" || NotMatching.String() != "not-matching" ||
		Undetermined.String() != "undetermined" {
		t.Error("verdict names wrong")
	}
	if got := Verdict(9).String(); got != "verdict(9)" {
		t.Errorf("Verdict(9) = %q", got)
	}
}

func TestRenderMT(t *testing.T) {
	res, err := Build(example3Config())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	out := res.RenderMT("matching table")
	for _, want := range []string{"r_name", "r_cuisine", "s_name", "s_speciality",
		"Anjuman", "It'sGreek", "TwinCities", "Hunan", "Gyros", "Mughalai"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderMT missing %q:\n%s", want, out)
		}
	}
	// Sorted: Anjuman row before It'sGreek row before TwinCities row.
	ai := strings.Index(out, "Anjuman")
	gi := strings.Index(out, "It'sGreek")
	ti := strings.Index(out, "TwinCities")
	if !(ai < gi && gi < ti) {
		t.Errorf("RenderMT rows not sorted:\n%s", out)
	}
}

func TestTableContains(t *testing.T) {
	tab := NewTable(nil, nil, Pair{RIndex: 1, SIndex: 2})
	if !tab.Contains(1, 2) || tab.Contains(2, 1) {
		t.Error("Contains wrong")
	}
	if tab.Len() != 1 {
		t.Error("Len wrong")
	}
}
