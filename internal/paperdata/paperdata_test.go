package paperdata

import (
	"testing"

	"entityid/internal/ilfd"
)

// The fixture tests pin the paper's data against accidental edits:
// sizes, keys and a handful of cell values straight from the tables.

func TestTable1Fixtures(t *testing.T) {
	r, s := Table1R(), Table1S()
	if r.Len() != 3 || s.Len() != 3 {
		t.Fatalf("sizes %d/%d", r.Len(), s.Len())
	}
	if !r.Schema().IsKey([]string{"name", "street"}) {
		t.Error("R key wrong")
	}
	if !s.Schema().IsKey([]string{"name", "city"}) {
		t.Error("S key wrong")
	}
	if got := r.MustValue(0, "name").Str(); got != "VillageWok" {
		t.Errorf("R[0].name = %q", got)
	}
	if got := s.MustValue(2, "manager").Str(); got != "Tom" {
		t.Errorf("S[2].manager = %q", got)
	}
}

func TestTable2Fixtures(t *testing.T) {
	r, s := Table2R(), Table2S()
	if r.Len() != 2 || s.Len() != 1 {
		t.Fatalf("sizes %d/%d", r.Len(), s.Len())
	}
	if !r.Schema().IsKey([]string{"name", "cuisine"}) {
		t.Error("R key wrong")
	}
	if !s.Schema().IsKey([]string{"name", "speciality"}) {
		t.Error("S key wrong")
	}
	f := Example2ILFD()
	if f.String() != "(speciality=Mughalai) → (cuisine=Indian)" {
		t.Errorf("I4 = %v", f)
	}
}

func TestTable5Fixtures(t *testing.T) {
	r, s := Table5R(), Table5S()
	if r.Len() != 5 || s.Len() != 4 {
		t.Fatalf("sizes %d/%d", r.Len(), s.Len())
	}
	if got := r.MustValue(4, "street").Str(); got != "Wash.Ave." {
		t.Errorf("R[4].street = %q", got)
	}
	if got := s.MustValue(3, "county").Str(); got != "Mpls." {
		t.Errorf("S[3].county = %q", got)
	}
}

func TestExample3ILFDFixtures(t *testing.T) {
	fs := Example3ILFDs()
	if len(fs) != 8 {
		t.Fatalf("ILFDs = %d, want I1–I8", len(fs))
	}
	// The set must be internally consistent and non-redundant except for
	// combined inferences (each I is essential).
	for i := range fs {
		if ilfd.Redundant(fs, i) {
			t.Errorf("I%d is redundant: %v", i+1, fs[i])
		}
	}
	// The paper's derived I9.
	if !ilfd.Infers(fs, Example3DerivedI9()) {
		t.Error("I9 not derivable from I1–I8")
	}
	// But not the converse of I7.
	if ilfd.Infers(fs, ilfd.MustParse("county=Ramsey -> street=FrontAve.")) {
		t.Error("converse of I7 wrongly derivable")
	}
	if got := len(Example3ExtendedKey()); got != 3 {
		t.Errorf("extended key size = %d", got)
	}
}

func TestTable6Table7Table8Fixtures(t *testing.T) {
	rp, sp := Table6RPrime(), Table6SPrime()
	if rp.Len() != 5 || sp.Len() != 4 {
		t.Fatalf("extended sizes %d/%d", rp.Len(), sp.Len())
	}
	// NULL cells exactly where the paper has them.
	if !rp.MustValue(1, "speciality").IsNull() {
		t.Error("R'[TwinCities,Indian].speciality not NULL")
	}
	if !rp.MustValue(4, "speciality").IsNull() {
		t.Error("R'[VillageWok].speciality not NULL")
	}
	if rp.MustValue(0, "speciality").IsNull() {
		t.Error("R'[TwinCities,Chinese].speciality NULL, want Hunan")
	}
	if got := Table7Expected(); len(got) != 3 {
		t.Errorf("Table 7 rows = %d", len(got))
	}
	tab := Table8()
	if tab.Len() != 4 {
		t.Errorf("Table 8 rows = %d", tab.Len())
	}
	if v, ok := tab.Lookup(Table8().Relation().Tuple(0)[0]); !ok || v.Str() != "Chinese" {
		t.Errorf("Table 8 lookup = %v, %t", v, ok)
	}
}

func TestFigure2Fixtures(t *testing.T) {
	r, s := Figure2R(), Figure2S()
	// The whole point: identical attribute values.
	if !r.Tuple(0).Identical(s.Tuple(0)) {
		t.Error("Figure 2 tuples differ")
	}
	rd, sd := Figure2RWithDomain(), Figure2SWithDomain()
	if rd.MustValue(0, "domain").Str() == sd.MustValue(0, "domain").Str() {
		t.Error("domain attributes equal; scenario broken")
	}
	if got := Figure2Distinctness(); len(got) != 1 {
		t.Errorf("distinctness rules = %d", len(got))
	}
}
