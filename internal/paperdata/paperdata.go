// Package paperdata holds the exact example data of Lim et al.: the
// relations of Tables 1, 2 and 5, the ILFDs I1–I8 of Example 3 and the
// Figure 2 soundness-failure scenario. Tests, experiments, examples and
// benchmarks all draw on these fixtures so the reproduced tables stay
// pinned to the paper.
package paperdata

import (
	"entityid/internal/ilfd"
	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

func s(v string) value.Value { return value.String(v) }

// Table1R returns relation R of Table 1: restaurants with candidate key
// (name, street).
//
//	name        street     cuisine
//	VillageWok  Wash.Ave.  Chinese
//	Ching       Co.B Rd.   Chinese
//	OldCountry  Co.B2 Rd.  American
func Table1R() *relation.Relation {
	sch := schema.MustNew("R",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "street", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
		},
		[]string{"name", "street"},
	)
	r := relation.New(sch)
	r.MustInsert(s("VillageWok"), s("Wash.Ave."), s("Chinese"))
	r.MustInsert(s("Ching"), s("Co.B Rd."), s("Chinese"))
	r.MustInsert(s("OldCountry"), s("Co.B2 Rd."), s("American"))
	return r
}

// Table1S returns relation S of Table 1: restaurants with candidate key
// (name, city).
//
//	name         city       manager
//	VillageWok   Mpls       Hwang
//	OldCountry   Roseville  Libby
//	ExpressCafe  Burnsville Tom
func Table1S() *relation.Relation {
	sch := schema.MustNew("S",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "city", Kind: value.KindString},
			{Name: "manager", Kind: value.KindString},
		},
		[]string{"name", "city"},
	)
	r := relation.New(sch)
	r.MustInsert(s("VillageWok"), s("Mpls"), s("Hwang"))
	r.MustInsert(s("OldCountry"), s("Roseville"), s("Libby"))
	r.MustInsert(s("ExpressCafe"), s("Burnsville"), s("Tom"))
	return r
}

// Table2R returns relation R of Table 2 (Example 2), key (name, cuisine)
// per the paper's underlining.
//
//	name        cuisine  street
//	TwinCities  Chinese  Wash.Ave.
//	TwinCities  Indian   Univ.Ave.
func Table2R() *relation.Relation {
	sch := schema.MustNew("R",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
			{Name: "street", Kind: value.KindString},
		},
		[]string{"name", "cuisine"},
	)
	r := relation.New(sch)
	r.MustInsert(s("TwinCities"), s("Chinese"), s("Wash.Ave."))
	r.MustInsert(s("TwinCities"), s("Indian"), s("Univ.Ave."))
	return r
}

// Table2S returns relation S of Table 2 (Example 2), key (name,
// speciality).
//
//	name        speciality  city
//	TwinCities  Mughalai    St. Paul
func Table2S() *relation.Relation {
	sch := schema.MustNew("S",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "speciality", Kind: value.KindString},
			{Name: "city", Kind: value.KindString},
		},
		[]string{"name", "speciality"},
	)
	r := relation.New(sch)
	r.MustInsert(s("TwinCities"), s("Mughalai"), s("St. Paul"))
	return r
}

// Example2ILFD returns I4, the single ILFD Example 2 uses:
// speciality=Mughalai → cuisine=Indian.
func Example2ILFD() ilfd.ILFD {
	return ilfd.MustParse("speciality=Mughalai -> cuisine=Indian")
}

// Table5R returns relation R of Table 5 (Example 3), key (name, cuisine).
//
//	name        cuisine  street
//	TwinCities  Chinese  Co.B2
//	TwinCities  Indian   Co.B3
//	It'sGreek   Greek    FrontAve.
//	Anjuman     Indian   LeSalleAve.
//	VillageWok  Chinese  Wash.Ave.
func Table5R() *relation.Relation {
	sch := schema.MustNew("R",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
			{Name: "street", Kind: value.KindString},
		},
		[]string{"name", "cuisine"},
	)
	r := relation.New(sch)
	r.MustInsert(s("TwinCities"), s("Chinese"), s("Co.B2"))
	r.MustInsert(s("TwinCities"), s("Indian"), s("Co.B3"))
	r.MustInsert(s("It'sGreek"), s("Greek"), s("FrontAve."))
	r.MustInsert(s("Anjuman"), s("Indian"), s("LeSalleAve."))
	r.MustInsert(s("VillageWok"), s("Chinese"), s("Wash.Ave."))
	return r
}

// Table5S returns relation S of Table 5 (Example 3), key (name,
// speciality).
//
//	name        speciality  county
//	TwinCities  Hunan       Roseville
//	TwinCities  Sichuan     Hennepin
//	It'sGreek   Gyros       Ramsey
//	Anjuman     Mughalai    Mpls.
func Table5S() *relation.Relation {
	sch := schema.MustNew("S",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "speciality", Kind: value.KindString},
			{Name: "county", Kind: value.KindString},
		},
		[]string{"name", "speciality"},
	)
	r := relation.New(sch)
	r.MustInsert(s("TwinCities"), s("Hunan"), s("Roseville"))
	r.MustInsert(s("TwinCities"), s("Sichuan"), s("Hennepin"))
	r.MustInsert(s("It'sGreek"), s("Gyros"), s("Ramsey"))
	r.MustInsert(s("Anjuman"), s("Mughalai"), s("Mpls."))
	return r
}

// Example3ILFDs returns ILFDs I1–I8 of Example 3 in paper order. The
// derived I9 (It'sGreek ∧ FrontAve. → Gyros) follows from I7 and I8 by
// the axioms; tests confirm it with ilfd.Infers.
//
//	I1: speciality=Hunan → cuisine=Chinese
//	I2: speciality=Sichuan → cuisine=Chinese
//	I3: speciality=Gyros → cuisine=Greek
//	I4: speciality=Mughalai → cuisine=Indian
//	I5: name=TwinCities ∧ street=Co.B2 → speciality=Hunan
//	I6: name=Anjuman ∧ street=LeSalleAve. → speciality=Mughalai
//	I7: street=FrontAve. → county=Ramsey
//	I8: name=It'sGreek ∧ county=Ramsey → speciality=Gyros
func Example3ILFDs() ilfd.Set {
	return ilfd.Set{
		ilfd.MustParse("speciality=Hunan -> cuisine=Chinese"),
		ilfd.MustParse("speciality=Sichuan -> cuisine=Chinese"),
		ilfd.MustParse("speciality=Gyros -> cuisine=Greek"),
		ilfd.MustParse("speciality=Mughalai -> cuisine=Indian"),
		ilfd.MustParse("name=TwinCities & street=Co.B2 -> speciality=Hunan"),
		ilfd.MustParse("name=Anjuman & street=LeSalleAve. -> speciality=Mughalai"),
		ilfd.MustParse("street=FrontAve. -> county=Ramsey"),
		ilfd.MustParse("name=It'sGreek & county=Ramsey -> speciality=Gyros"),
	}
}

// Example3DerivedI9 returns the ILFD the paper lists as derived:
// I9: name=It'sGreek ∧ street=FrontAve. → speciality=Gyros.
func Example3DerivedI9() ilfd.ILFD {
	return ilfd.MustParse("name=It'sGreek & street=FrontAve. -> speciality=Gyros")
}

// Example3ExtendedKey returns the extended key of Example 3:
// {name, cuisine, speciality}.
func Example3ExtendedKey() []string {
	return []string{"name", "cuisine", "speciality"}
}

// Table6RPrime returns the expected extended relation R′ of Table 6.
// Attribute order follows the paper: name, cuisine, speciality, street.
//
//	TwinCities  Chinese  Hunan     Co.B2
//	TwinCities  Indian   NULL      Co.B3
//	It'sGreek   Greek    Gyros     FrontAve.
//	Anjuman     Indian   Mughalai  LeSalleAve.
//	VillageWok  Chinese  NULL      Wash.Ave.
func Table6RPrime() *relation.Relation {
	sch := schema.MustNew("R'",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
			{Name: "speciality", Kind: value.KindString},
			{Name: "street", Kind: value.KindString},
		},
		[]string{"name", "cuisine"},
	)
	r := relation.New(sch)
	r.MustInsert(s("TwinCities"), s("Chinese"), s("Hunan"), s("Co.B2"))
	r.MustInsert(s("TwinCities"), s("Indian"), value.Null, s("Co.B3"))
	r.MustInsert(s("It'sGreek"), s("Greek"), s("Gyros"), s("FrontAve."))
	r.MustInsert(s("Anjuman"), s("Indian"), s("Mughalai"), s("LeSalleAve."))
	r.MustInsert(s("VillageWok"), s("Chinese"), value.Null, s("Wash.Ave."))
	return r
}

// Table6SPrime returns the expected extended relation S′ of Table 6.
// Attribute order follows the paper: name, speciality, cuisine, county.
//
//	TwinCities  Hunan     Chinese  Roseville
//	TwinCities  Sichuan   Chinese  Hennepin
//	It'sGreek   Gyros     Greek    Ramsey
//	Anjuman     Mughalai  Indian   Mpls.
func Table6SPrime() *relation.Relation {
	sch := schema.MustNew("S'",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "speciality", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
			{Name: "county", Kind: value.KindString},
		},
		[]string{"name", "speciality"},
	)
	r := relation.New(sch)
	r.MustInsert(s("TwinCities"), s("Hunan"), s("Chinese"), s("Roseville"))
	r.MustInsert(s("TwinCities"), s("Sichuan"), s("Chinese"), s("Hennepin"))
	r.MustInsert(s("It'sGreek"), s("Gyros"), s("Greek"), s("Ramsey"))
	r.MustInsert(s("Anjuman"), s("Mughalai"), s("Indian"), s("Mpls."))
	return r
}

// Table7Expected returns the expected matching table MT_RS of Table 7 as
// (R.name, R.cuisine, S.name, S.speciality) rows, sorted as the
// prototype prints them.
//
//	anjuman     indian   anjuman     mughalai
//	it'sgreek   greek    it'sgreek   gyros
//	twincities  chinese  twincities  hunan
func Table7Expected() [][4]string {
	return [][4]string{
		{"Anjuman", "Indian", "Anjuman", "Mughalai"},
		{"It'sGreek", "Greek", "It'sGreek", "Gyros"},
		{"TwinCities", "Chinese", "TwinCities", "Hunan"},
	}
}

// Table8 returns the paper's Table 8: ILFDs I1–I4 stored as the relation
// IM(speciality, cuisine).
func Table8() *ilfd.Table {
	tab := ilfd.MustNewTable("IM(speciality;cuisine)", []string{"speciality"}, "cuisine", nil)
	tab.MustAdd(s("Hunan"), s("Chinese"))
	tab.MustAdd(s("Sichuan"), s("Chinese"))
	tab.MustAdd(s("Gyros"), s("Greek"))
	tab.MustAdd(s("Mughalai"), s("Indian"))
	return tab
}

// Figure2R and Figure2S model the Figure 2 scenario: two databases whose
// tuples have identical attribute values but model two different
// real-world entities (VillageWok on Wash.Ave. in DB1 vs VillageWok on
// Co.B2.Rd. in DB2 — street is not modeled in either relation, so
// attribute-value equivalence wrongly equates them).
func Figure2R() *relation.Relation {
	sch := schema.MustNew("R",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
		},
		[]string{"name"},
	)
	r := relation.New(sch)
	r.MustInsert(s("VillageWok"), s("Chinese"))
	return r
}

// Figure2S is the DB2 relation of the Figure 2 scenario.
func Figure2S() *relation.Relation {
	sch := schema.MustNew("S",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
		},
		[]string{"name"},
	)
	r := relation.New(sch)
	r.MustInsert(s("VillageWok"), s("Chinese"))
	return r
}

// Figure2RWithDomain and Figure2SWithDomain add the domain attribute the
// paper proposes as the fix: tuples carry their source database, so
// assertions can distinguish the two worlds.
func Figure2RWithDomain() *relation.Relation {
	sch := schema.MustNew("R",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
			{Name: "domain", Kind: value.KindString},
		},
		[]string{"name"},
	)
	r := relation.New(sch)
	r.MustInsert(s("VillageWok"), s("Chinese"), s("DB1"))
	return r
}

// Figure2Distinctness returns the DBA assertion that fixes Figure 2's
// unsoundness: databases DB1 and DB2 model disjoint subsets of the
// restaurant domain, so a DB1 tuple and a DB2 tuple are never the same
// entity.
func Figure2Distinctness() []rules.DistinctnessRule {
	return []rules.DistinctnessRule{
		rules.MustNewDistinctness("disjoint-domains", []rules.Predicate{
			{Left: rules.Attr1("domain"), Op: rules.Eq, Right: rules.Const(value.String("DB1"))},
			{Left: rules.Attr2("domain"), Op: rules.Eq, Right: rules.Const(value.String("DB2"))},
		}),
	}
}

// Figure2SWithDomain is the DB2 relation with the domain attribute.
func Figure2SWithDomain() *relation.Relation {
	sch := schema.MustNew("S",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
			{Name: "domain", Kind: value.KindString},
		},
		[]string{"name"},
	)
	r := relation.New(sch)
	r.MustInsert(s("VillageWok"), s("Chinese"), s("DB2"))
	return r
}
