package derive_test

import (
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/derive"
	"entityid/internal/ilfd"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// BenchmarkAblationDerive measures bulk derivation over 3000 entities
// three ways: cut and fixpoint semantics over ILFD rules, and the
// relational formulation over ILFD tables (§4.2's joins).
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
	for _, leg := range []struct {
		name   string
		extend func() error
	}{
		{"cut-rules", func() error {
			_, _, err := derive.Extend(w.S, "S'", extra, uniform, derive.Options{Mode: derive.FirstMatch})
			return err
		}},
		{"fixpoint-rules", func() error {
			_, _, err := derive.Extend(w.S, "S'", extra, uniform, derive.Options{Mode: derive.Fixpoint})
			return err
		}},
		{"cut-tables", func() error {
			_, _, err := derive.ExtendWithTables(w.S, "S'", extra, tables, derive.Options{Mode: derive.FirstMatch})
			return err
		}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := leg.extend(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
