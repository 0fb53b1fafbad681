// Package experiments contains one runner per artifact the paper prints
// — Tables 1–8, Figures 1–4, the two §6 prototype sessions — thirteen in
// all. Each runner returns a Report with the rendered artifact and a
// Check error that is nil exactly when the reproduction matches the
// paper. The cmd/benchreport binary prints all reports; integration
// tests assert every Check. Nothing here is timed: performance is
// measured by bench/ and each layer's Benchmark functions.
package experiments

import (
	"fmt"
	"strings"

	"entityid/internal/baselines"
	"entityid/internal/derive"
	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/paperdata"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// Report is the outcome of one experiment.
type Report struct {
	// ID names the artifact: T1…T8 (T2/T3 is one), F1…F4, P1, P2.
	ID string
	// Title names the paper artifact.
	Title string
	// Text is the rendered artifact with paper-vs-measured commentary.
	Text string
	// Check is nil when the reproduction matches the paper's result.
	Check error
}

// Runner is a named, lazily-run experiment.
type Runner struct {
	ID  string
	Run func() Report
}

// Registry lists every experiment in the paper's order without running
// any of them; callers can filter by ID before paying for a run.
func Registry() []Runner {
	return []Runner{
		{"T1", Table1}, {"T2/T3", Table2and3}, {"T4", Table4},
		{"T5", Table5}, {"T6", Table6}, {"T7", Table7}, {"T8", Table8},
		{"F1", Figure1}, {"F2", Figure2}, {"F3", Figure3}, {"F4", Figure4},
		{"P1", Prototype1}, {"P2", Prototype2},
	}
}

// All runs every experiment in the paper's order.
func All() []Report {
	reg := Registry()
	out := make([]Report, 0, len(reg))
	for _, r := range reg {
		out = append(out, r.Run())
	}
	return out
}

// example3Config wires the paper's Example 3.
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

// Table1 reproduces Example 1 (Table 1): R and S share the attribute
// name but no candidate key; matching on name becomes ambiguous once
// the paper's VillageWok/Penn.Ave. tuple is inserted.
func Table1() Report {
	rep := Report{ID: "T1", Title: "Table 1 — Example 1: key equivalence fails without a common key"}
	var b strings.Builder
	r, s := paperdata.Table1R(), paperdata.Table1S()
	b.WriteString(r.String())
	b.WriteByte('\n')
	b.WriteString(s.String())
	b.WriteByte('\n')

	// Key equivalence proper: inapplicable.
	ke := baselines.KeyEquivalence{Key: []baselines.AttrPair{{R: "name", S: "name"}}}
	_, err := ke.Match(r, s)
	if err == nil {
		rep.Check = fmt.Errorf("key equivalence ran despite missing common key")
		return rep
	}
	fmt.Fprintf(&b, "key equivalence on {name}: %v\n", err)

	// Common-attribute matching: fine before, ambiguous after insertion.
	loose := baselines.KeyEquivalence{Key: []baselines.AttrPair{{R: "name", S: "name"}}, AllowNonKey: true}
	before, err := loose.Match(r, s)
	if err != nil {
		rep.Check = err
		return rep
	}
	if err := r.Insert(relation.Tuple{
		value.String("VillageWok"), value.String("Penn.Ave."), value.String("Chinese"),
	}); err != nil {
		rep.Check = err
		return rep
	}
	after, err := loose.Match(r, s)
	if err != nil {
		rep.Check = err
		return rep
	}
	perS := len(after.MatchesOfS(nil, 0))
	fmt.Fprintf(&b, "name-equality pairs before VillageWok/Penn.Ave. insertion: %d\n", before.Len())
	fmt.Fprintf(&b, "after insertion: %d pairs; S tuple \"VillageWok\" now matches %d R tuples (ambiguous)\n",
		after.Len(), perS)
	b.WriteString("paper: \"one tuple in S can be matched with two tuples in R. It is not clear which of them is the correct one.\"\n")
	if perS != 2 {
		rep.Check = fmt.Errorf("expected the ambiguity (2 R tuples per S VillageWok), got %d", perS)
	}
	rep.Text = b.String()
	return rep
}

// Table2and3 reproduces Example 2 (Tables 2 and 3): extended key
// {name, cuisine} plus ILFD I4 match R's Indian TwinCities with S's
// Mughalai TwinCities.
func Table2and3() Report {
	rep := Report{ID: "T2/T3", Title: "Tables 2–3 — Example 2: extended key + ILFD match"}
	var b strings.Builder
	cfg := match.Config{
		R: paperdata.Table2R(),
		S: paperdata.Table2S(),
		Attrs: []match.AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "cuisine", R: "cuisine", S: ""},
			{Name: "speciality", R: "", S: "speciality"},
			{Name: "street", R: "street", S: ""},
			{Name: "city", R: "", S: "city"},
		},
		ExtKey: []string{"name", "cuisine"},
		ILFDs:  ilfd.Set{paperdata.Example2ILFD()},
	}
	b.WriteString(cfg.R.String())
	b.WriteByte('\n')
	b.WriteString(cfg.S.String())
	b.WriteByte('\n')
	fmt.Fprintf(&b, "extended key: {name, cuisine}; ILFD: %v\n\n", paperdata.Example2ILFD())
	res, err := match.Build(cfg)
	if err != nil {
		rep.Check = err
		return rep
	}
	if err := res.Verify(); err != nil {
		rep.Check = err
		return rep
	}
	b.WriteString(res.RenderMT("MT_RS (paper Table 3)"))
	if res.MT.Len() != 1 {
		rep.Check = fmt.Errorf("MT has %d pairs, want 1", res.MT.Len())
		rep.Text = b.String()
		return rep
	}
	p := res.MT.At(0)
	if got := res.RPrime.MustValue(p.RIndex, "cuisine").Str(); got != "Indian" {
		rep.Check = fmt.Errorf("matched R cuisine = %q, want Indian", got)
	}
	b.WriteString("paper Table 3: (TwinCities, Indian) ↔ (TwinCities) — reproduced\n")
	rep.Text = b.String()
	return rep
}

// Table4 reproduces Table 4: the Proposition 1 distinctness rule from
// I4 places (TwinCities-Chinese, TwinCities-Mughalai) in the negative
// matching table.
func Table4() Report {
	rep := Report{ID: "T4", Title: "Table 4 — negative matching via Proposition 1"}
	var b strings.Builder
	cfg := match.Config{
		R: paperdata.Table2R(),
		S: paperdata.Table2S(),
		Attrs: []match.AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "cuisine", R: "cuisine", S: ""},
			{Name: "speciality", R: "", S: "speciality"},
		},
		ExtKey: []string{"name", "cuisine"},
		ILFDs:  ilfd.Set{paperdata.Example2ILFD()},
	}
	res, err := match.Build(cfg)
	if err != nil {
		rep.Check = err
		return rep
	}
	neg := res.NegativePairs(0)
	fmt.Fprintf(&b, "distinctness rule (Prop. 1 from I4): e1.speciality=Mughalai ∧ e2.cuisine≠Indian → e1 ≢ e2\n")
	header := []string{"r_name", "r_cuisine", "s_name", "s_speciality"}
	var rows []relation.Tuple
	foundPaperPair := false
	for _, p := range neg {
		row := relation.Tuple{
			res.RPrime.MustValue(p.RIndex, "name"),
			res.RPrime.MustValue(p.RIndex, "cuisine"),
			res.SPrime.MustValue(p.SIndex, "name"),
			res.SPrime.MustValue(p.SIndex, "speciality"),
		}
		rows = append(rows, row)
		if row[0].Str() == "TwinCities" && row[1].Str() == "Chinese" && row[2].Str() == "TwinCities" {
			foundPaperPair = true
		}
	}
	b.WriteString(relation.Format("NMT_RS (paper Table 4)", header, rows))
	b.WriteString("paper Table 4: (TwinCities, Chinese) ≢ (TwinCities) — reproduced\n")
	if !foundPaperPair {
		rep.Check = fmt.Errorf("paper's NMT pair missing; negatives = %v", neg)
	}
	rep.Text = b.String()
	return rep
}

// Table5 renders the Example 3 inputs.
func Table5() Report {
	rep := Report{ID: "T5", Title: "Table 5 — Example 3 source relations"}
	r, s := paperdata.Table5R(), paperdata.Table5S()
	var b strings.Builder
	b.WriteString(r.String())
	b.WriteByte('\n')
	b.WriteString(s.String())
	if r.Len() != 5 || s.Len() != 4 {
		rep.Check = fmt.Errorf("fixture sizes %d/%d, want 5/4", r.Len(), s.Len())
	}
	rep.Text = b.String()
	return rep
}

// Table6 reproduces the extended relations R′ and S′ of Table 6 and
// checks them cell-by-cell against the paper.
func Table6() Report {
	rep := Report{ID: "T6", Title: "Table 6 — extended relations R′ and S′"}
	var b strings.Builder
	res, err := match.Build(example3Config())
	if err != nil {
		rep.Check = err
		return rep
	}
	b.WriteString(res.RPrime.String())
	b.WriteByte('\n')
	b.WriteString(res.SPrime.String())
	b.WriteByte('\n')

	wantR, wantS := paperdata.Table6RPrime(), paperdata.Table6SPrime()
	for i := 0; i < res.RPrime.Len(); i++ {
		name, cui := res.RPrime.MustValue(i, "name"), res.RPrime.MustValue(i, "cuisine")
		j := wantR.LookupKey(name, cui)
		if j < 0 {
			rep.Check = fmt.Errorf("R' row (%v,%v) not in paper Table 6", name, cui)
			break
		}
		if !value.Identical(res.RPrime.MustValue(i, "speciality"), wantR.MustValue(j, "speciality")) {
			rep.Check = fmt.Errorf("R' (%v,%v) speciality = %v, paper has %v",
				name, cui, res.RPrime.MustValue(i, "speciality"), wantR.MustValue(j, "speciality"))
			break
		}
	}
	if rep.Check == nil {
		for i := 0; i < res.SPrime.Len(); i++ {
			name, spec := res.SPrime.MustValue(i, "name"), res.SPrime.MustValue(i, "speciality")
			j := wantS.LookupKey(name, spec)
			if j < 0 {
				rep.Check = fmt.Errorf("S' row (%v,%v) not in paper Table 6", name, spec)
				break
			}
			if !value.Identical(res.SPrime.MustValue(i, "cuisine"), wantS.MustValue(j, "cuisine")) {
				rep.Check = fmt.Errorf("S' (%v,%v) cuisine = %v, paper has %v",
					name, spec, res.SPrime.MustValue(i, "cuisine"), wantS.MustValue(j, "cuisine"))
				break
			}
		}
	}
	b.WriteString("derived I9 (It'sGreek ∧ FrontAve. → Gyros) holds: ")
	if ilfd.Infers(paperdata.Example3ILFDs(), paperdata.Example3DerivedI9()) {
		b.WriteString("yes (inferred from I7, I8 via the axioms)\n")
	} else {
		b.WriteString("NO\n")
		rep.Check = fmt.Errorf("I9 not inferable from I1–I8")
	}
	rep.Text = b.String()
	return rep
}

// Table7 reproduces the Example 3 matching table and checks the three
// pairs against the paper.
func Table7() Report {
	rep := Report{ID: "T7", Title: "Table 7 — matching table MT_RS for Example 3"}
	var b strings.Builder
	res, err := match.Build(example3Config())
	if err != nil {
		rep.Check = err
		return rep
	}
	if err := res.Verify(); err != nil {
		rep.Check = err
		return rep
	}
	b.WriteString(res.RenderMT("MT_RS (paper Table 7)"))
	if res.MT.Len() != 3 {
		rep.Check = fmt.Errorf("MT has %d pairs, want 3", res.MT.Len())
		rep.Text = b.String()
		return rep
	}
	for _, w := range paperdata.Table7Expected() {
		found := false
		for p := range res.MT.All() {
			if res.RPrime.MustValue(p.RIndex, "name").Str() == w[0] &&
				res.RPrime.MustValue(p.RIndex, "cuisine").Str() == w[1] &&
				res.SPrime.MustValue(p.SIndex, "name").Str() == w[2] &&
				res.SPrime.MustValue(p.SIndex, "speciality").Str() == w[3] {
				found = true
				break
			}
		}
		if !found {
			rep.Check = fmt.Errorf("paper row %v missing from MT", w)
			break
		}
	}
	b.WriteString("paper Table 7 rows reproduced: TwinCities/Hunan, It'sGreek/Gyros, Anjuman/Mughalai\n")
	rep.Text = b.String()
	return rep
}

// Table8 reproduces the relational ILFD storage of Table 8 and verifies
// that table-driven derivation equals rule-driven derivation.
func Table8() Report {
	rep := Report{ID: "T8", Title: "Table 8 — ILFD table IM(speciality, cuisine)"}
	var b strings.Builder
	tab := paperdata.Table8()
	b.WriteString(tab.Relation().String())
	b.WriteByte('\n')

	// Expand and compare derivations on Table 5's S.
	s := paperdata.Table5S()
	extra := []schema.Attribute{{Name: "cuisine", Kind: value.KindString}}
	byRules, _, err := derive.Extend(s, "S'", extra, tab.ILFDs(), derive.Options{})
	if err != nil {
		rep.Check = err
		return rep
	}
	byTables, _, err := derive.ExtendWithTables(s, "S'", extra, []*ilfd.Table{tab}, derive.Options{})
	if err != nil {
		rep.Check = err
		return rep
	}
	if !byRules.Equal(byTables) {
		rep.Check = fmt.Errorf("rule-driven and table-driven derivations differ")
	}
	b.WriteString("rule-driven extension of S equals table-driven (relational §4.2 pipeline): ")
	if rep.Check == nil {
		b.WriteString("yes\n")
	} else {
		b.WriteString("NO\n")
	}
	rep.Text = b.String()
	return rep
}

// integratedExample3 builds the integrated table used by F4/P1.
func integratedExample3() (*match.Result, *relation.Relation, error) {
	res, err := match.Build(example3Config())
	if err != nil {
		return nil, nil, err
	}
	if err := res.Verify(); err != nil {
		return nil, nil, err
	}
	tab, err := res.Integrated()
	if err != nil {
		return nil, nil, err
	}
	return res, tab, nil
}
