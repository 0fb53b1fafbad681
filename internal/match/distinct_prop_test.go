package match

// Property test for the engine's distinctFiresNamed, the consistency
// half of Identify and Verify: the lookup the engine answers from must
// give the verdict and the rule name of the linear walk it
// replaced — every effective rule (user + Prop. 1), in declaration
// order, in both orientations, first firing rule wins. The walk is kept
// here, over the exported compiled rules, as the reference.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"entityid/internal/ilfd"
	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// linearDistinctFires is the parent's engine.distinctFiresNamed.
func linearDistinctFires(res *Result, rt, st relation.Tuple) (string, bool) {
	rs, ss := res.RPrime.Schema(), res.SPrime.Schema()
	for _, d := range res.Distinct() {
		if d.Compile(rs, ss).Holds(rt, st) || d.Compile(ss, rs).Holds(st, rt) {
			return d.Name, true
		}
	}
	return "", false
}

// distinctDomain is what a column of each kind, and a constant compared
// with it, can hold: few enough values that pins collide and fire, plus
// the values equality treats specially.
var distinctDomain = map[value.Kind][]value.Value{
	value.KindString: {value.String("x"), value.String("y"), value.String("z")},
	value.KindInt:    {value.Int(0), value.Int(1), value.Int(2)},
	value.KindFloat:  {value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(1), value.Float(math.NaN())},
	value.KindBool:   {value.Bool(false), value.Bool(true)},
}

func TestDistinctFiresIndexedEqualsLinearWalk(t *testing.T) {
	attrs := []schema.Attribute{
		{Name: "k"}, {Name: "a"}, {Name: "n", Kind: value.KindInt},
		{Name: "f", Kind: value.KindFloat}, {Name: "b", Kind: value.KindBool},
	}
	// onlyS is a source column of S the attribute map does not mention: S′
	// keeps it, R′ lacks it. d is modelled by neither source and derived.
	rSch := schema.MustNew("R", attrs, []string{"k"})
	sSch := schema.MustNew("S", append(append([]schema.Attribute(nil), attrs...), schema.Attribute{Name: "onlyS"}), []string{"k"})
	cols := []string{"a", "n", "f", "b", "d", "onlyS", "ghost"}
	kindOf := map[string]value.Kind{"a": value.KindString, "n": value.KindInt, "f": value.KindFloat,
		"b": value.KindBool, "d": value.KindString, "onlyS": value.KindString, "ghost": value.KindString}

	fired, pinnedFired, names := 0, 0, map[string]bool{}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func(k value.Kind) value.Value {
			switch d := distinctDomain[k]; rng.Intn(12) {
			case 0:
				return value.Null
			case 1: // another kind's value: an int constant against a float column
				return value.Int(int64(rng.Intn(2)))
			default:
				return d[rng.Intn(len(d))]
			}
		}
		attrRef := func() (rules.Operand, value.Kind) {
			a := cols[rng.Intn(len(cols))]
			if rng.Intn(2) == 0 {
				return rules.Attr1(a), kindOf[a]
			}
			return rules.Attr2(a), kindOf[a]
		}
		cfg := Config{
			R: relation.New(rSch), S: relation.New(sSch),
			Attrs: []AttrMap{{Name: "k", R: "k", S: "k"}, {Name: "a", R: "a", S: "a"}, {Name: "n", R: "n", S: "n"},
				{Name: "f", R: "f", S: "f"}, {Name: "b", R: "b", S: "b"}, {Name: "d"}},
			ExtKey: []string{"k"},
		}
		for i, n := 0, rng.Intn(8); i < n; i++ {
			var ante ilfd.Conditions
			for j, m := 0, 1+rng.Intn(2); j < m; j++ {
				a := cols[rng.Intn(4)]
				ante = append(ante, ilfd.Condition{Attr: a, Val: pick(kindOf[a])})
			}
			cfg.ILFDs = append(cfg.ILFDs, ilfd.MustNew(ante, ilfd.Conditions{ilfd.C("d", []string{"x", "y"}[rng.Intn(2)])}))
		}
		for i, n := 0, rng.Intn(8); i < n; i++ {
			// A literal, not NewDistinctness: nothing between here and the
			// engine validates a rule, so one-sided and constant-only
			// conjunctions are inputs too.
			d := rules.DistinctnessRule{Name: fmt.Sprintf("u%d", i)}
			for j, m := 0, 1+rng.Intn(3); j < m; j++ {
				left, kind := attrRef()
				p := rules.Predicate{Left: left, Op: rules.Op(rng.Intn(6)), Right: rules.Const(pick(kind))}
				switch rng.Intn(4) {
				case 0: // no constant
					p.Right, _ = attrRef()
				case 1: // a pin
					p.Op = rules.Eq
				case 2: // a pin written constant first
					p.Op, p.Left, p.Right = rules.Eq, p.Right, p.Left
				}
				d.Preds = append(d.Preds, p)
			}
			cfg.Distinct = append(cfg.Distinct, d)
			if rng.Intn(4) == 0 { // the same conjunction under a later name
				cfg.Distinct = append(cfg.Distinct, rules.DistinctnessRule{Name: d.Name + "dup", Preds: d.Preds})
			}
		}
		res, err := Build(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tuple := func(sch *schema.Schema) relation.Tuple {
			out := make(relation.Tuple, sch.Arity())
			for i := range out {
				out[i] = pick(sch.Attr(i).Kind)
			}
			return out
		}
		for i := 0; i < 200; i++ {
			rt, st := tuple(res.RPrime.Schema()), tuple(res.SPrime.Schema())
			wantName, want := linearDistinctFires(res, rt, st)
			gotName, got := res.engine().distinctFiresNamed(rt, st)
			if got != want || gotName != wantName {
				t.Fatalf("seed %d: distinctFiresNamed(%v, %v) = %q, %v; the linear walk says %q, %v\nrules: %v",
					seed, rt, st, gotName, got, wantName, want, res.Distinct())
			}
			if got {
				fired++
				names[gotName] = true
				if gotName[0] == 'd' {
					pinnedFired++
				}
			}
		}
	}
	if fired < 1000 || pinnedFired < 100 || len(names) < 20 {
		t.Fatalf("workload too tame: %d firings (%d by a Prop.-1 rule) of %d distinct rules", fired, pinnedFired, len(names))
	}
	t.Logf("%d firings (%d by a Prop.-1 rule) of %d distinct rules", fired, pinnedFired, len(names))
}
