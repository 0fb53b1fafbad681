package match_test

// Differential tests: the indexed/blocked/parallel engine versus the
// reference implementation (Config.Naive) over randomized datagen
// instances. The two paths must agree bit-for-bit on the matching
// table, the Figure 3 partition, verification (including the error
// message), the classifier, and both lazy NMT/undetermined sweeps.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/federate"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// namePhoneRule is a blocked-path identity rule: two cross-equality
// predicates drive hash-join candidate generation.
func namePhoneRule(t testing.TB) rules.IdentityRule {
	t.Helper()
	r, err := rules.NewIdentity("name-phone", []rules.Predicate{
		{Left: rules.Attr1("name"), Op: rules.Eq, Right: rules.Attr2("name")},
		{Left: rules.Attr1("phone"), Op: rules.Eq, Right: rules.Attr2("phone")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// constPinRule has no cross-equality predicate (cuisine is pinned by
// equal constants on both sides), forcing the engine's nested-loop
// fallback. It matches every chinese×chinese pair, so workloads using
// it generally fail Verify — differentially, in both paths.
func constPinRule(t testing.TB) rules.IdentityRule {
	t.Helper()
	r, err := rules.NewIdentity("all-chinese", []rules.Predicate{
		{Left: rules.Attr1("cuisine"), Op: rules.Eq, Right: rules.Const(value.String("chinese"))},
		{Left: rules.Attr2("cuisine"), Op: rules.Eq, Right: rules.Const(value.String("chinese"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// nameCityRule names an attribute only S′ has once withoutCity has bent
// the configuration: its cross equality can never hold, so the probe
// classifies it once and never evaluates it.
func nameCityRule(t testing.TB) rules.IdentityRule {
	t.Helper()
	r, err := rules.KeyEquivalence("name-city", []string{"name", "city"})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// withoutCity drops city from the attribute map (no ILFD mentions it):
// S′ keeps its source column, R′ gets none.
func withoutCity(_ testing.TB, cfg *match.Config) {
	var attrs []match.AttrMap
	for _, am := range cfg.Attrs {
		if am.Name != "city" {
			attrs = append(attrs, am)
		}
	}
	cfg.Attrs = attrs
}

// withFloatKey appends a float attribute to both relations and to the
// extended key. Its value follows the tuple's name, so the two images of
// an entity carry the same class of value: an ordinary float, NaN (which
// equals nothing, itself included: those pairs must drop out of the
// table), or a zero — negative in R, positive in S, which are equal.
func withFloatKey(t testing.TB, cfg *match.Config) {
	t.Helper()
	widen := func(rel *relation.Relation, zero float64) *relation.Relation {
		sch := rel.Schema()
		wide, err := schema.New(sch.Name(), append(sch.Attrs(), schema.Attribute{Name: "score", Kind: value.KindFloat}), sch.Keys()...)
		if err != nil {
			t.Fatal(err)
		}
		out := relation.New(wide)
		for _, tup := range rel.Tuples() {
			name := tup[sch.Index("name")].Str()
			score := []float64{1.5, math.NaN(), zero}[int(name[len(name)-1])%3]
			if err := out.Insert(append(tup.Clone(), value.Float(score))); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	cfg.R, cfg.S = widen(cfg.R, math.Copysign(0, -1)), widen(cfg.S, 0)
	cfg.Attrs = append(append([]match.AttrMap(nil), cfg.Attrs...), match.AttrMap{Name: "score", R: "score", S: "score"})
	cfg.ExtKey = append(append([]string(nil), cfg.ExtKey...), "score")
}

func TestEngineMatchesReferenceDifferentially(t *testing.T) {
	cases := []struct {
		name     string
		gen      datagen.Config
		identity func(testing.TB) []rules.IdentityRule
		bend     func(testing.TB, *match.Config)
		// check holds the engine's result to what the case is there for.
		check func(testing.TB, *match.Result)
	}{
		{
			name: "baseline",
			gen:  datagen.Config{Entities: 90, OverlapFrac: 0.5, HomonymRate: 0.1, ILFDCoverage: 0.7, Seed: 1},
		},
		{
			name: "high-homonym",
			gen:  datagen.Config{Entities: 120, OverlapFrac: 0.6, HomonymRate: 0.35, ILFDCoverage: 0.5, Seed: 2},
		},
		{
			name: "dirty-phones",
			gen:  datagen.Config{Entities: 100, OverlapFrac: 0.4, HomonymRate: 0.1, ILFDCoverage: 0.6, MissingPhone: 0.3, DirtyPhone: 0.4, Seed: 3},
		},
		{
			name: "no-knowledge",
			gen:  datagen.Config{Entities: 80, OverlapFrac: 0.5, HomonymRate: 0.1, ILFDCoverage: 0, Seed: 4},
		},
		{
			name: "blocked-identity-rule",
			gen:  datagen.Config{Entities: 110, OverlapFrac: 0.5, HomonymRate: 0.2, ILFDCoverage: 0.3, MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 5},
			identity: func(t testing.TB) []rules.IdentityRule {
				return []rules.IdentityRule{namePhoneRule(t)}
			},
		},
		{
			name: "fallback-identity-rule",
			gen:  datagen.Config{Entities: 60, OverlapFrac: 0.5, HomonymRate: 0.1, ILFDCoverage: 0.5, Seed: 6},
			identity: func(t testing.TB) []rules.IdentityRule {
				return []rules.IdentityRule{constPinRule(t)}
			},
		},
		{
			name: "mixed-identity-rules",
			gen:  datagen.Config{Entities: 70, OverlapFrac: 0.5, HomonymRate: 0.15, ILFDCoverage: 0.4, Seed: 7},
			identity: func(t testing.TB) []rules.IdentityRule {
				return []rules.IdentityRule{namePhoneRule(t), constPinRule(t)}
			},
		},
		{
			// Four phones in ten are NULL: those tuples have no block.
			name: "null-equality-projection",
			gen:  datagen.Config{Entities: 100, OverlapFrac: 0.6, HomonymRate: 0.15, ILFDCoverage: 0.3, MissingPhone: 0.4, Seed: 8},
			identity: func(t testing.TB) []rules.IdentityRule {
				return []rules.IdentityRule{namePhoneRule(t)}
			},
		},
		{
			name: "rule-attribute-one-side-lacks",
			gen:  datagen.Config{Entities: 80, OverlapFrac: 0.5, HomonymRate: 0.1, ILFDCoverage: 0.4, Seed: 9},
			identity: func(t testing.TB) []rules.IdentityRule {
				return []rules.IdentityRule{nameCityRule(t), namePhoneRule(t)}
			},
			bend: withoutCity,
		},
		{
			name: "float-key-nan-and-negative-zero",
			gen:  datagen.Config{Entities: 90, OverlapFrac: 0.6, HomonymRate: 0.1, ILFDCoverage: 0.8, Seed: 10},
			bend: withFloatKey,
			check: func(t testing.TB, res *match.Result) {
				nan := func(rel *relation.Relation) map[string]bool {
					names := map[string]bool{}
					for i := 0; i < rel.Len(); i++ {
						if math.IsNaN(rel.MustValue(i, "score").FloatVal()) {
							names[rel.MustValue(i, "name").Str()] = true
						}
					}
					return names
				}
				shared := false
				for name := range nan(res.RPrime) {
					shared = shared || nan(res.SPrime)[name]
				}
				zeros := 0
				for p := range res.MT.All() {
					switch score := res.RPrime.MustValue(p.RIndex, "score").FloatVal(); {
					case math.IsNaN(score):
						t.Fatalf("pair %v matched on a NaN key value", p)
					case score == 0:
						zeros++
					}
				}
				if !shared || zeros == 0 {
					t.Fatalf("workload too tame: a name with NaN on both sides %v, %d pairs matched on -0.0 = +0.0", shared, zeros)
				}
			},
		},
	}
	for _, tc := range cases {
		for seedShift := int64(0); seedShift < 3; seedShift++ {
			gen := tc.gen
			gen.Seed += 1000 * seedShift
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, gen.Seed), func(t *testing.T) {
				t.Parallel()
				w := datagen.MustGenerate(gen)
				cfg := w.MatchConfig()
				if tc.identity != nil {
					cfg.Identity = tc.identity(t)
				}
				if tc.bend != nil {
					tc.bend(t, &cfg)
				}

				engCfg, refCfg := cfg, cfg
				refCfg.Naive = true
				eng, err := match.Build(engCfg)
				if err != nil {
					t.Fatalf("engine Build: %v", err)
				}
				ref, err := match.Build(refCfg)
				if err != nil {
					t.Fatalf("reference Build: %v", err)
				}

				if e, r := slices.Collect(eng.MT.All()), slices.Collect(ref.MT.All()); !reflect.DeepEqual(e, r) {
					t.Fatalf("MT mismatch:\nengine    %v\nreference %v", e, r)
				}
				if tc.check != nil {
					tc.check(t, eng)
				}
				if got, want := errString(eng.Verify()), errString(ref.Verify()); got != want {
					t.Fatalf("Verify mismatch:\nengine    %q\nreference %q", got, want)
				}
				em, en, eu := eng.Counts()
				rm, rn, ru := ref.Counts()
				if em != rm || en != rn || eu != ru {
					t.Fatalf("Counts mismatch: engine (%d,%d,%d), reference (%d,%d,%d)", em, en, eu, rm, rn, ru)
				}
				for i := 0; i < eng.RPrime.Len(); i++ {
					for j := 0; j < eng.SPrime.Len(); j++ {
						if ev, rv := eng.Classify(i, j), ref.Classify(i, j); ev != rv {
							t.Fatalf("Classify(%d,%d) mismatch: engine %v, reference %v", i, j, ev, rv)
						}
					}
				}
				for _, limit := range []int{0, 1, 17} {
					if got, want := eng.NegativePairs(limit), ref.NegativePairs(limit); !reflect.DeepEqual(got, want) {
						t.Fatalf("NegativePairs(%d) mismatch: %d vs %d pairs", limit, len(got), len(want))
					}
					if got, want := eng.UndeterminedPairs(limit), ref.UndeterminedPairs(limit); !reflect.DeepEqual(got, want) {
						t.Fatalf("UndeterminedPairs(%d) mismatch: %d vs %d pairs", limit, len(got), len(want))
					}
				}
			})
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// pinnedNameRule has no cross equality — both sides' names are pinned to
// one constant — so the probe scans the opposite side for it. The name
// is that of a pair only an identity rule can find (its extended-key
// projection is NULL: no ILFD covers it) and that no other tuple shares,
// which keeps the rule sound.
func pinnedNameRule(t testing.TB, w *datagen.Workload, byKey *match.Result) rules.IdentityRule {
	t.Helper()
	count := map[string]int{}
	for _, rel := range []*relation.Relation{w.R, w.S} {
		for i := 0; i < rel.Len(); i++ {
			count[rel.MustValue(i, "name").Str()]++
		}
	}
	for pair := range w.Truth {
		name := w.R.MustValue(pair[0], "name")
		if count[name.Str()] == 2 && !byKey.MT.Contains(pair[0], pair[1]) {
			r, err := rules.NewIdentity("pinned-name", []rules.Predicate{
				{Left: rules.Attr1("name"), Op: rules.Eq, Right: rules.Const(name)},
				{Left: rules.Attr2("name"), Op: rules.Eq, Right: rules.Const(name)},
			})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	t.Fatal("workload has no uniquely named pair the extended key misses")
	return rules.IdentityRule{}
}

// TestFederationStreamingEqualsBatchWithIdentityRules pins the
// batch ≡ incremental invariant for workloads whose matches come
// through an extra identity rule, in every shape the probe classifies: a
// federation seeded with half of each relation and streamed the rest in
// a seeded random interleaving must end bit-for-bit at match.Build on
// the final relations. Before incremental inserts probed the
// identity-rule hash blocks, a tuple matching solely via the rule (its
// extended-key projection NULL because no ILFD covers it) was silently
// missed here.
func TestFederationStreamingEqualsBatchWithIdentityRules(t *testing.T) {
	cases := []struct {
		name         string
		missingPhone float64
		identity     func(testing.TB, *datagen.Workload, *match.Result) []rules.IdentityRule
		bend         func(testing.TB, *match.Config)
		// ruleOnly: the rules must find pairs the extended key does not.
		ruleOnly bool
	}{
		{
			name: "blocked",
			identity: func(t testing.TB, _ *datagen.Workload, _ *match.Result) []rules.IdentityRule {
				return []rules.IdentityRule{namePhoneRule(t)}
			},
			ruleOnly: true,
		},
		{
			name:         "blocked-null-projections",
			missingPhone: 0.3,
			identity: func(t testing.TB, _ *datagen.Workload, _ *match.Result) []rules.IdentityRule {
				return []rules.IdentityRule{namePhoneRule(t)}
			},
			ruleOnly: true,
		},
		{
			name: "constants-only",
			identity: func(t testing.TB, w *datagen.Workload, byKey *match.Result) []rules.IdentityRule {
				return []rules.IdentityRule{pinnedNameRule(t, w, byKey)}
			},
			ruleOnly: true,
		},
		{
			name: "attribute-one-side-lacks",
			identity: func(t testing.TB, _ *datagen.Workload, _ *match.Result) []rules.IdentityRule {
				return []rules.IdentityRule{nameCityRule(t)}
			},
			bend: withoutCity,
		},
	}
	for n, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := datagen.MustGenerate(datagen.Config{
				Entities: 100, OverlapFrac: 0.6, HomonymRate: 0.15,
				// Low coverage on purpose: uncovered overlap entities match
				// only via an identity rule.
				ILFDCoverage: 0.3, MissingPhone: tc.missingPhone, Seed: 42,
			})
			cfg := w.MatchConfig()
			if tc.bend != nil {
				tc.bend(t, &cfg)
			}
			byKey, err := match.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Identity = tc.identity(t, w, byKey)
			batch, err := match.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The scenario must actually exercise the identity-rule path:
			// some final pairs exist that the extended-key join alone does
			// not find.
			if tc.ruleOnly && batch.MT.Len() <= byKey.MT.Len() {
				t.Fatalf("workload has no identity-rule-only matches (%d vs %d)", batch.MT.Len(), byKey.MT.Len())
			}

			// Seed the federation with the first half of each relation.
			half := func(rel *relation.Relation, n int) *relation.Relation {
				out := relation.New(rel.Schema())
				for i := 0; i < n; i++ {
					if err := out.Insert(rel.Tuple(i).Clone()); err != nil {
						t.Fatal(err)
					}
				}
				return out
			}
			i, j := w.R.Len()/2, w.S.Len()/2
			fedCfg := cfg
			fedCfg.R = half(w.R, i)
			fedCfg.S = half(w.S, j)
			fed, err := federate.New(fedCfg)
			if err != nil {
				t.Fatal(err)
			}
			// Sweep once now so the cached sweep plan must extend, not
			// rebuild, across the inserts below.
			fed.Result().Counts()

			// Stream the remainder, sides interleaved at random.
			rng := rand.New(rand.NewSource(int64(n)))
			for i < w.R.Len() || j < w.S.Len() {
				if j == w.S.Len() || i < w.R.Len() && rng.Intn(2) == 0 {
					if _, err := fed.InsertR(w.R.Tuple(i).Clone()); err != nil {
						t.Fatalf("InsertR %d: %v", i, err)
					}
					i++
				} else {
					if _, err := fed.InsertS(w.S.Tuple(j).Clone()); err != nil {
						t.Fatalf("InsertS %d: %v", j, err)
					}
					j++
				}
			}

			got, want := fed.Pairs(), slices.Collect(batch.MT.All())
			federate.SortPairs(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("streamed MT != batch MT:\nstreamed %v\nbatch    %v", got, want)
			}
			if err := fed.Result().Verify(); err != nil {
				t.Fatalf("streamed state unsound: %v", err)
			}
			fm, fn, fu := fed.Result().Counts()
			bm, bn, bu := batch.Counts()
			if fm != bm || fn != bn || fu != bu {
				t.Fatalf("Counts mismatch: streamed (%d,%d,%d), batch (%d,%d,%d)", fm, fn, fu, bm, bn, bu)
			}
		})
	}
}
