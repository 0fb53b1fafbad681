package match_test

// The per-tuple extension against the relational pipeline it replaced.
// A SideExtender pads one tuple into a schema resolved once; the old path
// built a one-tuple relation, renamed it (rename below: a second schema
// and relation) and extended that (derive.Extend: a third). The old path
// is assembled here from those pieces and must agree with the new one on
// every tuple and conflict.

import (
	"fmt"
	"reflect"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/derive"
	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// rename returns r with its relation renamed and attributes renamed
// according to the mapping (attributes absent from the mapping keep their
// names), candidate keys carried over under the new names: §4.2's one
// relational operator the replaced pipeline needed beside derive.Extend.
func rename(r *relation.Relation, name string, mapping map[string]string) (*relation.Relation, error) {
	attrs, keys := r.Schema().Attrs(), r.Schema().Keys()
	for i := range attrs {
		if nn, ok := mapping[attrs[i].Name]; ok {
			attrs[i].Name = nn
		}
	}
	for _, k := range keys {
		for i := range k {
			if nn, ok := mapping[k[i]]; ok {
				k[i] = nn
			}
		}
	}
	sch, err := schema.New(name, attrs, keys...)
	if err != nil {
		return nil, err
	}
	out := relation.New(sch)
	if r.IsBag() {
		out = relation.NewBag(sch)
	}
	for _, t := range r.Tuples() {
		if err := out.Insert(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func TestRename(t *testing.T) {
	sch := schema.MustNew("R", []schema.Attribute{
		{Name: "name", Kind: value.KindString}, {Name: "cui", Kind: value.KindString},
	}, []string{"name"})
	r := relation.New(sch)
	if err := r.InsertStrings("wok", "chinese"); err != nil {
		t.Fatal(err)
	}
	got, err := rename(r, "R2", map[string]string{"cui": "cuisine"})
	if err != nil {
		t.Fatalf("rename: %v", err)
	}
	if !got.Schema().Has("cuisine") || got.Schema().Has("cui") {
		t.Errorf("rename schema = %v", got.Schema())
	}
	if !got.Schema().IsKey([]string{"name"}) {
		t.Error("rename dropped key")
	}
	// Renaming a key attribute renames it inside the key too.
	got2, err := rename(r, "R3", map[string]string{"name": "id"})
	if err != nil {
		t.Fatalf("rename key attr: %v", err)
	}
	if !got2.Schema().IsKey([]string{"id"}) {
		t.Error("key attr not renamed in key")
	}
	// Renaming into a collision fails.
	if _, err := rename(r, "R4", map[string]string{"cui": "name"}); err == nil {
		t.Error("rename collision accepted")
	}
}

// relationalExtend is the replaced pipeline for one side of cfg over any
// relation with that side's source schema.
func relationalExtend(cfg match.Config, left bool, rel *relation.Relation) (*relation.Relation, []derive.Conflict, error) {
	name, other := "R'", cfg.S
	if !left {
		name, other = "S'", cfg.R
	}
	renames := map[string]string{}
	var extra []schema.Attribute
	for _, am := range cfg.Attrs {
		from, otherFrom := am.R, am.S
		if !left {
			from, otherFrom = am.S, am.R
		}
		if from != "" {
			if from != am.Name {
				renames[from] = am.Name
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
	if len(renames) > 0 {
		renamed, err := rename(rel, rel.Schema().Name(), renames)
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
		out, err := rename(rel, rel.Schema().Name(), m)
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
					res, err := match.Build(cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					var sc match.Scratch
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
					// Tuple by tuple, each admitted by its own one-tuple
					// relation and extended the way an arriving tuple is
					// (Result.ExtendAdmitted), against the relational
					// pipeline over that relation.
					for i, tup := range rel.Tuples() {
						if !got.Tuple(i).Identical(want.Tuple(i)) {
							t.Fatalf("%s tuple %d: Extend %v, relational pipeline %v", label, i, got.Tuple(i), want.Tuple(i))
						}
						one := relation.New(rel.Schema())
						a, err := one.Admit(tup)
						if err != nil {
							t.Fatal(err)
						}
						if err := one.InsertAdmitted(a); err != nil {
							t.Fatal(err)
						}
						wantOne, wantOneConf, err := relationalExtend(cfg, left, one)
						if err != nil {
							t.Fatalf("%s tuple %d: relational pipeline: %v", label, i, err)
						}
						before := tup.Clone()
						ext, conf, err := res.ExtendAdmitted(left, a, &sc)
						if err != nil {
							t.Fatalf("%s tuple %d: ExtendAdmitted: %v", label, i, err)
						}
						if !ext.Identical(wantOne.Tuple(0)) || !reflect.DeepEqual(conf, wantOneConf) {
							t.Fatalf("%s tuple %d: ExtendAdmitted %v %v, relational pipeline %v %v",
								label, i, ext, conf, wantOne.Tuple(0), wantOneConf)
						}
						if !tup.Identical(before) {
							t.Fatalf("%s tuple %d: ExtendAdmitted changed its argument", label, i)
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
// with a value of the wrong kind never reaches an extender — the one way
// to one is an admission, and the side's relation refuses to give it,
// with the text its Insert gives — while a well-formed one is extended.
func TestSideExtenderRejectsMisshapenTuples(t *testing.T) {
	cfg := extendWorkload(t, 1, true, derive.FirstMatch)
	res, err := match.Build(cfg)
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
		fresh := relation.New(cfg.R.Schema())
		want := fresh.Insert(bad)
		if want == nil {
			t.Fatalf("%s: the reference accepted %v", name, bad)
		}
		if _, err := fresh.Admit(bad); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: Admit = %v; want error %q", name, err, want)
		}
	}
	a, err := relation.New(cfg.R.Schema()).Admit(good)
	if err != nil {
		t.Fatalf("well-formed tuple refused: %v", err)
	}
	var sc match.Scratch
	if ext, _, err := res.ExtendAdmitted(true, a, &sc); err != nil || len(ext) != res.RPrime.Schema().Arity() {
		t.Fatalf("well-formed tuple extended to %v, %v", ext, err)
	}
}
