package match_test

// The per-tuple extension against the relational pipeline it replaced.
// SideExtender.ExtendTuple pads one tuple into a schema resolved once;
// the old path built a one-tuple relation, renamed it (ra.Rename: a
// second schema and relation) and extended that (derive.Extend: a
// third). The old path is assembled here from those public pieces and
// must agree with the new one on every tuple, conflict and error.

import (
	"fmt"
	"reflect"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/derive"
	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/ra"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// relationalExtend is the replaced pipeline for one side of cfg over any
// relation with that side's source schema.
func relationalExtend(cfg match.Config, left bool, rel *relation.Relation) (*relation.Relation, []derive.Conflict, error) {
	name, other := "R'", cfg.S
	if !left {
		name, other = "S'", cfg.R
	}
	rename := map[string]string{}
	var extra []schema.Attribute
	for _, am := range cfg.Attrs {
		from, otherFrom := am.R, am.S
		if !left {
			from, otherFrom = am.S, am.R
		}
		if from != "" {
			if from != am.Name {
				rename[from] = am.Name
			}
			continue
		}
		kind := value.KindString
		if otherFrom != "" {
			kind = other.Schema().KindOf(otherFrom)
		} else {
			// Neither side has it: the first ILFD consequent types it.
			found := false
			for _, f := range cfg.ILFDs {
				for _, c := range f.Consequent {
					if c.Attr == am.Name && !found {
						kind, found = c.Val.Kind(), true
					}
				}
			}
		}
		extra = append(extra, schema.Attribute{Name: am.Name, Kind: kind})
	}
	cur := rel
	if len(rename) > 0 {
		renamed, err := ra.Rename(rel, rel.Schema().Name(), rename)
		if err != nil {
			return nil, nil, err
		}
		cur = renamed
	}
	return derive.Extend(cur, name, extra, cfg.ILFDs, derive.Options{Mode: cfg.DeriveMode})
}

// extendWorkload is a datagen workload bent to cover the extension's
// cases: NULL-bearing tuples (MissingPhone), attributes each side lacks
// (street/cuisine, city/speciality), one attribute neither side has
// whose kind comes from an ILFD consequent, an ILFD that contradicts the
// generated family (a fixpoint conflict on every S tuple it touches)
// and, when renamed, source attribute names that differ from the
// integrated ones — key attributes included.
func extendWorkload(t *testing.T, seed int64, renamed bool, mode derive.Mode) match.Config {
	t.Helper()
	w := datagen.MustGenerate(datagen.Config{
		Entities: 60, OverlapFrac: 0.5, HomonymRate: 0.2, ILFDCoverage: 0.7,
		MissingPhone: 0.3, DirtyPhone: 0.2, Seed: seed,
	})
	cfg := w.MatchConfig()
	cfg.DeriveMode = mode
	cfg.Attrs = append(append([]match.AttrMap(nil), cfg.Attrs...), match.AttrMap{Name: "stars"})
	spec := w.S.MustValue(0, "speciality")
	cfg.ILFDs = append(append(ilfd.Set(nil), cfg.ILFDs...),
		ilfd.ILFD{
			Antecedent: ilfd.Conditions{{Attr: "speciality", Val: spec}},
			Consequent: ilfd.Conditions{{Attr: "stars", Val: value.Int(3)}},
		},
		ilfd.ILFD{
			Antecedent: ilfd.Conditions{{Attr: "speciality", Val: spec}},
			Consequent: ilfd.Conditions{{Attr: "cuisine", Val: value.String("contradicted")}},
		},
	)
	if !renamed {
		return cfg
	}
	prefix := func(rel *relation.Relation, p string) *relation.Relation {
		m := map[string]string{}
		for _, a := range rel.Schema().AttrNames() {
			m[a] = p + a
		}
		out, err := ra.Rename(rel, rel.Schema().Name(), m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cfg.R, cfg.S = prefix(cfg.R, "r_"), prefix(cfg.S, "s_")
	for i := range cfg.Attrs {
		if cfg.Attrs[i].R != "" {
			cfg.Attrs[i].R = "r_" + cfg.Attrs[i].R
		}
		if cfg.Attrs[i].S != "" {
			cfg.Attrs[i].S = "s_" + cfg.Attrs[i].S
		}
	}
	return cfg
}

func TestSideExtenderMatchesRelationalPipeline(t *testing.T) {
	sawConflict, sawNull, sawDerived := false, false, false
	for seed := int64(1); seed <= 4; seed++ {
		for _, renamed := range []bool{false, true} {
			for _, mode := range []derive.Mode{derive.FirstMatch, derive.Fixpoint} {
				cfg := extendWorkload(t, seed, renamed, mode)
				for _, left := range []bool{true, false} {
					label := fmt.Sprintf("seed %d renamed %v %v left %v", seed, renamed, mode, left)
					rel := cfg.S
					if left {
						rel = cfg.R
					}
					se, err := match.NewSideExtender(cfg, left)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					// The whole relation: same schema (a renamed attribute
					// keeps its column, the missing ones append), same
					// tuples, same conflicts at the same tuple indexes.
					want, wantConf, err := relationalExtend(cfg, left, rel)
					if err != nil {
						t.Fatalf("%s: relational pipeline: %v", label, err)
					}
					got, gotConf, err := se.Extend(rel)
					if err != nil {
						t.Fatalf("%s: Extend: %v", label, err)
					}
					if !got.Schema().Equal(want.Schema()) {
						t.Fatalf("%s: extended schema %v, relational pipeline %v", label, got.Schema(), want.Schema())
					}
					if !reflect.DeepEqual(gotConf, wantConf) {
						t.Fatalf("%s: conflicts %v, relational pipeline %v", label, gotConf, wantConf)
					}
					sawConflict = sawConflict || len(gotConf) > 0
					// Tuple by tuple, each through its own one-tuple
					// relation the way the parent's prepare extended it.
					for i, tup := range rel.Tuples() {
						if !got.Tuple(i).Identical(want.Tuple(i)) {
							t.Fatalf("%s tuple %d: Extend %v, relational pipeline %v", label, i, got.Tuple(i), want.Tuple(i))
						}
						one := relation.New(rel.Schema())
						if err := one.Insert(tup); err != nil {
							t.Fatal(err)
						}
						wantOne, wantOneConf, err := relationalExtend(cfg, left, one)
						if err != nil {
							t.Fatalf("%s tuple %d: relational pipeline: %v", label, i, err)
						}
						before := tup.Clone()
						ext, conf, err := se.ExtendTuple(tup)
						if err != nil {
							t.Fatalf("%s tuple %d: ExtendTuple: %v", label, i, err)
						}
						if !ext.Identical(wantOne.Tuple(0)) || !reflect.DeepEqual(conf, wantOneConf) {
							t.Fatalf("%s tuple %d: ExtendTuple %v %v, relational pipeline %v %v",
								label, i, ext, conf, wantOne.Tuple(0), wantOneConf)
						}
						if !tup.Identical(before) {
							t.Fatalf("%s tuple %d: ExtendTuple changed its argument", label, i)
						}
						for c, v := range ext {
							if c < len(tup) {
								sawNull = sawNull || v.IsNull()
							} else {
								sawDerived = sawDerived || !v.IsNull()
							}
						}
					}
				}
			}
		}
	}
	if !sawConflict || !sawNull || !sawDerived {
		t.Fatalf("workloads too tame: conflict %v, NULL source value %v, derived value %v", sawConflict, sawNull, sawDerived)
	}
}

// TestSideExtenderRejectsMisshapenTuples: a tuple of the wrong arity or
// with a value of the wrong kind fails before anything is derived, with
// the text the one-tuple relation's Insert gave the parent's prepare.
func TestSideExtenderRejectsMisshapenTuples(t *testing.T) {
	cfg := extendWorkload(t, 1, true, derive.FirstMatch)
	se, err := match.NewSideExtender(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	good := cfg.R.Tuple(0)
	wrongKind := good.Clone()
	wrongKind[2] = value.Int(7)
	for name, bad := range map[string]relation.Tuple{
		"short":      good[:3],
		"long":       append(good.Clone(), value.Null),
		"empty":      nil,
		"wrong kind": wrongKind,
	} {
		want := relation.New(cfg.R.Schema()).Insert(bad)
		if want == nil {
			t.Fatalf("%s: the reference accepted %v", name, bad)
		}
		ext, _, err := se.ExtendTuple(bad)
		if err == nil || err.Error() != want.Error() || ext != nil {
			t.Errorf("%s: ExtendTuple = %v, %v; want error %q", name, ext, err, want)
		}
	}
	if _, _, err := se.ExtendTuple(good); err != nil {
		t.Fatalf("well-formed tuple rejected: %v", err)
	}
}
