package datagen

import (
	"math"
	"testing"

	"entityid/internal/match"
	"entityid/internal/quality"
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{Entities: 0},
		{Entities: 10, OverlapFrac: -0.1},
		{Entities: 10, HomonymRate: 1.5},
		{Entities: 10, ILFDCoverage: 2},
		{Entities: 10, MissingPhone: -1},
		{Entities: 10, DirtyPhone: 9},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", cfg)
		}
	}
	good := Config{Entities: 10, OverlapFrac: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Entities: 200, OverlapFrac: 0.5, HomonymRate: 0.1, ILFDCoverage: 0.7, Seed: 7}
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if !a.R.Equal(b.R) || !a.S.Equal(b.S) {
		t.Error("same seed produced different relations")
	}
	if len(a.Truth) != len(b.Truth) {
		t.Error("same seed produced different truth")
	}
	c := MustGenerate(Config{Entities: 200, OverlapFrac: 0.5, HomonymRate: 0.1, ILFDCoverage: 0.7, Seed: 8})
	if a.R.Equal(c.R) {
		t.Error("different seeds produced identical R")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := Config{Entities: 500, OverlapFrac: 0.6, HomonymRate: 0.15, ILFDCoverage: 0.5, MissingPhone: 0.2, DirtyPhone: 0.2, Seed: 42}
	w := MustGenerate(cfg)

	if len(w.Entities) != 500 {
		t.Fatalf("entities = %d", len(w.Entities))
	}
	if w.R.Len() == 0 || w.S.Len() == 0 {
		t.Fatal("empty relation")
	}
	if len(w.RToEntity) != w.R.Len() || len(w.SToEntity) != w.S.Len() {
		t.Fatal("provenance length mismatch")
	}
	// Truth pairs ~ overlap fraction of entities.
	frac := float64(len(w.Truth)) / float64(len(w.Entities))
	if math.Abs(frac-cfg.OverlapFrac) > 0.1 {
		t.Errorf("truth fraction = %.2f, want ≈ %.2f", frac, cfg.OverlapFrac)
	}
	// Truth pairs actually model the same entity.
	for p := range w.Truth {
		if w.RToEntity[p[0]] != w.SToEntity[p[1]] {
			t.Fatalf("truth pair %v crosses entities", p)
		}
	}
	// No common candidate key: R key (name, street), S key (name, city).
	if !w.R.Schema().IsKey([]string{"name", "street"}) {
		t.Error("R key wrong")
	}
	if !w.S.Schema().IsKey([]string{"name", "city"}) {
		t.Error("S key wrong")
	}
	// Homonyms exist.
	names := map[string]int{}
	for _, e := range w.Entities {
		names[e.Name]++
	}
	homonyms := 0
	for _, n := range names {
		if n > 1 {
			homonyms += n
		}
	}
	if homonyms == 0 {
		t.Error("no homonyms generated at rate 0.15")
	}
	// Extended key is a key of the universe: no two entities agree on
	// (name, cuisine, speciality).
	seen := map[string]bool{}
	for _, e := range w.Entities {
		k := e.Name + "|" + e.Cuisine + "|" + e.Speciality
		if seen[k] {
			t.Fatalf("extended key collision: %s", k)
		}
		seen[k] = true
	}
}

// TestEndToEndSoundness runs the paper's technique on generated
// workloads and checks the headline claim: precision 1.0 (soundness),
// recall bounded by ILFD coverage. Beside the first case, the universe
// sizes the scaling sweep ran (100 to 10,000 entities) and the homonym
// rates the baseline comparison ran (0, 0.1, 0.3 — where name-based
// matching accumulates false positives and this technique must keep
// none).
func TestEndToEndSoundness(t *testing.T) {
	cases := []Config{
		{Entities: 400, OverlapFrac: 0.5, HomonymRate: 0.2, ILFDCoverage: 0.6, MissingPhone: 0.1, DirtyPhone: 0.3, Seed: 11},
	}
	for _, n := range []int{100, 1000, 10000} {
		cases = append(cases, Config{Entities: n, OverlapFrac: 0.5, HomonymRate: 0.1, ILFDCoverage: 0.7, Seed: int64(n)})
	}
	for _, rate := range []float64{0, 0.1, 0.3} {
		cases = append(cases, Config{
			Entities: 600, OverlapFrac: 0.5, HomonymRate: rate, ILFDCoverage: 0.7,
			MissingPhone: 0.2, DirtyPhone: 0.3, Seed: int64(1000 + int(rate*100)),
		})
	}
	for _, cfg := range cases {
		w := MustGenerate(cfg)
		res, err := match.Build(w.MatchConfig())
		if err != nil {
			t.Fatalf("%+v: match.Build: %v", cfg, err)
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("%+v: Verify: %v", cfg, err)
		}
		sc := quality.Evaluate(res.MT, w.Truth)
		if !sc.Sound() {
			t.Errorf("%+v: unsound result: %s", cfg, sc)
		}
		// Recall equals the covered fraction of the truth exactly: every
		// covered R tuple derives speciality, every S tuple derives cuisine
		// (the family is total), and the extended key is a true key.
		covered := w.CoveredTruth()
		if sc.TruePos != covered {
			t.Errorf("%+v: recall: matched %d pairs, coverage ceiling %d", cfg, sc.TruePos, covered)
		}
		if covered == 0 || covered == len(w.Truth) {
			t.Logf("%+v: warning: degenerate coverage %d/%d", cfg, covered, len(w.Truth))
		}
	}
}

func TestZeroCoverageMatchesNothing(t *testing.T) {
	w := MustGenerate(Config{Entities: 100, OverlapFrac: 0.5, ILFDCoverage: 0, Seed: 3})
	res, err := match.Build(w.MatchConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := quality.Evaluate(res.MT, w.Truth)
	if sc.TruePos != 0 || sc.FalsePos != 0 {
		t.Errorf("zero coverage matched: %s", sc)
	}
}

func TestFullCoverageFullRecall(t *testing.T) {
	w := MustGenerate(Config{Entities: 150, OverlapFrac: 0.5, HomonymRate: 0.1, ILFDCoverage: 1, Seed: 5})
	res, err := match.Build(w.MatchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	sc := quality.Evaluate(res.MT, w.Truth)
	if sc.Recall() != 1 {
		t.Errorf("full coverage recall = %g (%s)", sc.Recall(), sc)
	}
	if !sc.Sound() {
		t.Errorf("unsound: %s", sc)
	}
}
