package entityid

// Benchmarks: one testing.B target per paper artifact (Tables 1–8,
// Figures 1–4, the §6 prototype sessions) plus the quantitative sweeps
// S1–S4 of DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The paper reports no timings — its evaluation is the worked examples
// and the prototype transcripts — so these benches (a) pin that every
// artifact still reproduces while being measured and (b) provide the
// scaling data a modern reader expects (see EXPERIMENTS.md).

import (
	"fmt"
	"testing"

	"entityid/internal/baselines"
	"entityid/internal/datagen"
	"entityid/internal/derive"
	"entityid/internal/federate"
	"entityid/internal/ilfd"
	"entityid/internal/integrate"
	"entityid/internal/match"
	"entityid/internal/paperdata"
	"entityid/internal/quality"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

func example3Cfg() match.Config {
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

// BenchmarkTable1KeyEquivalenceAmbiguity measures Example 1's
// common-attribute match including the ambiguous VillageWok case (T1).
func BenchmarkTable1KeyEquivalenceAmbiguity(b *testing.B) {
	r, s := paperdata.Table1R(), paperdata.Table1S()
	if err := r.Insert(relation.Tuple{
		value.String("VillageWok"), value.String("Penn.Ave."), value.String("Chinese"),
	}); err != nil {
		b.Fatal(err)
	}
	m := baselines.KeyEquivalence{Key: []baselines.AttrPair{{R: "name", S: "name"}}, AllowNonKey: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt, err := m.Match(r, s)
		if err != nil {
			b.Fatal(err)
		}
		if mt.Len() != 3 {
			b.Fatalf("pairs = %d", mt.Len())
		}
	}
}

// BenchmarkTable2ExtendedKeyMatch measures Example 2's extended-key +
// ILFD match (T2/T3).
func BenchmarkTable2ExtendedKeyMatch(b *testing.B) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := match.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.MT.Len() != 1 {
			b.Fatalf("pairs = %d", res.MT.Len())
		}
	}
}

// BenchmarkTable4NegativeMatching measures NMT enumeration via the
// Proposition 1 distinctness rules (T4).
func BenchmarkTable4NegativeMatching(b *testing.B) {
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
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		neg := res.NegativePairs(0)
		if len(neg) == 0 {
			b.Fatal("no negative pairs")
		}
	}
}

// BenchmarkTable6ExtendRelations measures the ILFD derivation that
// produces the extended relations of Table 6 (T6).
func BenchmarkTable6ExtendRelations(b *testing.B) {
	r := paperdata.Table5R()
	fs := paperdata.Example3ILFDs()
	extra := []schema.Attribute{
		{Name: "speciality", Kind: value.KindString},
		{Name: "county", Kind: value.KindString},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext, _, err := derive.Extend(r, "R'", extra, fs, derive.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if ext.Len() != 5 {
			b.Fatal("wrong extension")
		}
	}
}

// BenchmarkTable7MatchingTable measures the full Example 3 matching-
// table construction (T7).
func BenchmarkTable7MatchingTable(b *testing.B) {
	cfg := example3Cfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := match.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.MT.Len() != 3 {
			b.Fatalf("pairs = %d", res.MT.Len())
		}
	}
}

// BenchmarkTable8ILFDTableDerivation measures relational (join-based)
// derivation through the Table 8 ILFD table (T8).
func BenchmarkTable8ILFDTableDerivation(b *testing.B) {
	s := paperdata.Table5S()
	tab := paperdata.Table8()
	extra := []schema.Attribute{{Name: "cuisine", Kind: value.KindString}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext, _, err := derive.ExtendWithTables(s, "S'", extra, []*ilfd.Table{tab}, derive.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if ext.Len() != 4 {
			b.Fatal("wrong extension")
		}
	}
}

// BenchmarkFigure1Correspondence measures sound correspondence recovery
// on a synthetic universe with ground truth (F1).
func BenchmarkFigure1Correspondence(b *testing.B) {
	w := datagen.MustGenerate(datagen.Config{
		Entities: 300, OverlapFrac: 0.4, HomonymRate: 0.1, ILFDCoverage: 0.8, Seed: 101,
	})
	cfg := w.MatchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := match.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sc := quality.Evaluate(res.MT, w.Truth)
		if !sc.Sound() {
			b.Fatalf("unsound: %s", sc)
		}
	}
}

// BenchmarkFigure2SoundnessFailure measures the probabilistic-attribute
// baseline on the Figure 2 scenario (F2).
func BenchmarkFigure2SoundnessFailure(b *testing.B) {
	r, s := paperdata.Figure2R(), paperdata.Figure2S()
	pa := baselines.ProbabilisticAttr{Common: []baselines.AttrPair{
		{R: "name", S: "name"}, {R: "cuisine", S: "cuisine"},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt, err := pa.Match(r, s)
		if err != nil {
			b.Fatal(err)
		}
		if mt.Len() != 1 {
			b.Fatal("unsound match did not fire")
		}
	}
}

// BenchmarkFigure3Monotonicity measures the full monotonicity series:
// nine matching-table builds with growing ILFD sets plus the three-way
// partition at each step (F3).
func BenchmarkFigure3Monotonicity(b *testing.B) {
	all := paperdata.Example3ILFDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k <= len(all); k++ {
			cfg := example3Cfg()
			cfg.ILFDs = all[:k]
			res, err := match.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res.Counts()
		}
	}
}

// BenchmarkFigure4Pipeline measures the full Figure 4 pipeline:
// extend → match → verify → integrate (F4).
func BenchmarkFigure4Pipeline(b *testing.B) {
	cfg := example3Cfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := match.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			b.Fatal(err)
		}
		tab, err := integrate.Build(res, integrate.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if tab.Len() != 6 {
			b.Fatalf("rows = %d", tab.Len())
		}
	}
}

// BenchmarkPrototypeSession measures the §6.3 session-1 flow including
// table rendering (P1).
func BenchmarkPrototypeSession(b *testing.B) {
	cfg := example3Cfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := match.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			b.Fatal(err)
		}
		tab, err := integrate.Build(res, integrate.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.RenderMT("matching table")) == 0 || len(tab.Render("integrated table")) == 0 {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkPrototypeUnsoundKey measures the §6.3 session-2 flow: build
// with extended key {name} and detect the uniqueness violation (P2).
func BenchmarkPrototypeUnsoundKey(b *testing.B) {
	cfg := example3Cfg()
	cfg.ExtKey = []string{"name"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := match.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Verify() == nil {
			b.Fatal("unsound key passed verification")
		}
	}
}

// BenchmarkScalingMatch is S1: matching-table construction across
// universe sizes.
func BenchmarkScalingMatch(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		w := datagen.MustGenerate(datagen.Config{
			Entities: n, OverlapFrac: 0.5, HomonymRate: 0.1, ILFDCoverage: 0.7, Seed: int64(n),
		})
		cfg := w.MatchConfig()
		b.Run(fmt.Sprintf("entities=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := match.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				_ = res.MT.Len()
			}
		})
	}
}

// BenchmarkClosure is S2: symbol-set closure over growing ILFD sets
// with depth-8 chains.
func BenchmarkClosure(b *testing.B) {
	for _, size := range []int{16, 128, 1024} {
		var fs ilfd.Set
		for i := 0; i < 8; i++ {
			fs = append(fs, ilfd.MustNew(
				ilfd.Conditions{ilfd.C(fmt.Sprintf("a%d", i), "1")},
				ilfd.Conditions{ilfd.C(fmt.Sprintf("a%d", i+1), "1")},
			))
		}
		for i := len(fs); i < size; i++ {
			fs = append(fs, ilfd.MustNew(
				ilfd.Conditions{ilfd.C(fmt.Sprintf("p%d", i), "x")},
				ilfd.Conditions{ilfd.C(fmt.Sprintf("q%d", i), "y")},
			))
		}
		seed := ilfd.Conditions{ilfd.C("a0", "1")}
		b.Run(fmt.Sprintf("ilfds=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clo := ilfd.Closure(seed, fs)
				if len(clo) < 9 {
					b.Fatalf("closure size %d", len(clo))
				}
			}
		})
	}
}

// BenchmarkBaselines is S3: each §2.2 technique on the same 600-entity
// workload with 10% homonyms.
func BenchmarkBaselines(b *testing.B) {
	w := datagen.MustGenerate(datagen.Config{
		Entities: 600, OverlapFrac: 0.5, HomonymRate: 0.1,
		ILFDCoverage: 0.7, MissingPhone: 0.2, DirtyPhone: 0.3, Seed: 1010,
	})
	b.Run("extended-key-ilfd", func(b *testing.B) {
		cfg := w.MatchConfig()
		for i := 0; i < b.N; i++ {
			if _, err := match.Build(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("name-equality", func(b *testing.B) {
		m := baselines.KeyEquivalence{Key: []baselines.AttrPair{{R: "name", S: "name"}}, AllowNonKey: true}
		for i := 0; i < b.N; i++ {
			if _, err := m.Match(w.R, w.S); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("probabilistic-key", func(b *testing.B) {
		m := baselines.ProbabilisticKey{Key: []baselines.AttrPair{{R: "name", S: "name"}}, Threshold: 0.6}
		for i := 0; i < b.N; i++ {
			if _, err := m.Match(w.R, w.S); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("probabilistic-attribute", func(b *testing.B) {
		m := baselines.ProbabilisticAttr{
			Common:    []baselines.AttrPair{{R: "name", S: "name"}, {R: "phone", S: "phone"}},
			Threshold: 0.99,
		}
		for i := 0; i < b.N; i++ {
			if _, err := m.Match(w.R, w.S); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFederateInsert is S5: per-insert incremental identification
// against a live federation seeded with 400 entities.
func BenchmarkFederateInsert(b *testing.B) {
	w := datagen.MustGenerate(datagen.Config{
		Entities: 400, OverlapFrac: 0.5, HomonymRate: 0.1, ILFDCoverage: 0.8, Seed: 505,
	})
	fed, err := federate.New(w.MatchConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := relation.Tuple{
			value.String(fmt.Sprintf("bench-entity-%d", i)),
			value.String(fmt.Sprintf("%d bench st", i)),
			value.String("chinese"),
			value.Null,
		}
		if _, err := fed.InsertR(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDerive is S4: cut vs fixpoint semantics and rules vs
// relational ILFD tables, bulk derivation over 3000 entities.
func BenchmarkAblationDerive(b *testing.B) {
	w := datagen.MustGenerate(datagen.Config{
		Entities: 3000, OverlapFrac: 0.5, ILFDCoverage: 1, Seed: 77,
	})
	var uniform ilfd.Set
	for _, f := range w.ILFDs {
		if len(f.Antecedent) == 1 && f.Antecedent[0].Attr == "speciality" {
			uniform = append(uniform, f)
		}
	}
	tables, _, err := ilfd.FromSet(uniform, func(string) value.Kind { return value.KindString })
	if err != nil {
		b.Fatal(err)
	}
	extra := []schema.Attribute{{Name: "cuisine", Kind: value.KindString}}
	b.Run("cut-rules", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := derive.Extend(w.S, "S'", extra, uniform, derive.Options{Mode: derive.FirstMatch}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fixpoint-rules", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := derive.Extend(w.S, "S'", extra, uniform, derive.Options{Mode: derive.Fixpoint}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cut-tables", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := derive.ExtendWithTables(w.S, "S'", extra, tables, derive.Options{Mode: derive.FirstMatch}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
