package match

// The hashed probe against what it replaced and against what it is for.
// On values free of the bytes a joined key is made of, Probe must hand
// out the positions — the same, in the same order — that the string-keyed
// buckets of the engine it replaced did (refBuckets, kept here as the
// reference); on values made of those bytes the buckets are wrong and the
// reference is §4.2 itself, nested loops under value.Equal and the
// interpreted identity rule. Both, again, with every position filed under
// one hash: every chain a collision chain, every partner the
// verification's alone.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// probeWorld builds a random pair of relations over a string, a second
// string, an int and a float attribute, an extended key of one or two of
// them and, every other time, an identity rule blocked on two more.
func probeWorld(t *testing.T, rng *rand.Rand, strs []string) Config {
	t.Helper()
	side := func(name string) *relation.Relation {
		sch := schema.MustNew(name, []schema.Attribute{
			{Name: "id", Kind: value.KindInt},
			{Name: "a", Kind: value.KindString}, {Name: "b", Kind: value.KindString},
			{Name: "n", Kind: value.KindInt}, {Name: "f", Kind: value.KindFloat},
		}, []string{"id"})
		rel := relation.New(sch)
		for i := 0; i < 40; i++ {
			tup := relation.Tuple{value.Int(int64(i)),
				value.String(strs[rng.Intn(len(strs))]), value.String(strs[rng.Intn(len(strs))]),
				value.Int(int64(rng.Intn(3))),
				value.Float([]float64{0, math.Copysign(0, -1), 1, math.NaN()}[rng.Intn(4)])}
			for c := 1; c < len(tup); c++ {
				if rng.Intn(10) == 0 {
					tup[c] = value.Null
				}
			}
			if err := rel.Insert(tup); err != nil {
				t.Fatal(err)
			}
		}
		return rel
	}
	attrs := []string{"a", "b", "n", "f"}
	rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	cfg := Config{
		R: side("R"), S: side("S"), ExtKey: attrs[:1+rng.Intn(2)],
		Attrs: []AttrMap{{Name: "id_r", R: "id"}, {Name: "id_s", S: "id"}},
	}
	for _, a := range []string{"a", "b", "n", "f"} {
		cfg.Attrs = append(cfg.Attrs, AttrMap{Name: a, R: a, S: a})
	}
	if rng.Intn(2) == 0 {
		rule, err := rules.KeyEquivalence("same-"+strings.Join(attrs[2:], "-"), attrs[2:])
		if err != nil {
			t.Fatal(err)
		}
		cfg.Identity = []rules.IdentityRule{rule}
	}
	return cfg
}

// oldProjectionKey is the joined projection the engine filed positions
// under: "" when the projection cannot join.
func oldProjectionKey(t relation.Tuple, idx []int) string {
	var b strings.Builder
	for n, i := range idx {
		v := t[i]
		if !value.Equal(v, v) {
			return ""
		}
		if n > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.Key())
	}
	return b.String()
}

// refBuckets are one side's string-keyed buckets: by extended-key
// projection, and by the identity rule's equality projection.
type refBuckets struct{ byKey, blocks map[string][]int }

func newRefBuckets(rows []relation.Tuple, keyPos, eqPos []int) refBuckets {
	ref := refBuckets{map[string][]int{}, map[string][]int{}}
	for pos, row := range rows {
		if k := oldProjectionKey(row, keyPos); k != "" {
			ref.byKey[k] = append(ref.byKey[k], pos)
		}
		if k := oldProjectionKey(row, eqPos); eqPos != nil && k != "" {
			ref.blocks[k] = append(ref.blocks[k], pos)
		}
	}
	return ref
}

// TestProbeEqualsItsReferences probes every tuple of both sides of random
// results, under the real hash and with every position under hash zero.
func TestProbeEqualsItsReferences(t *testing.T) {
	plain := []string{"", "a", "b", "ab", "1"}
	hostile := []string{"", "x", "y", "x\x1fs:y", "y\x1fs:x", "\x1fs:", "s:", "i:1", "\x00"}
	matched := 0
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		isHostile, collide := seed%2 == 0, seed%3 == 0
		strs := plain
		if isHostile {
			strs = hostile
		}
		cfg := probeWorld(t, rng, strs)
		res, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		px := &res.px
		// rows are R′ and S′, images the images' rows the probe reads.
		rows := [2][]relation.Tuple{res.RPrime.Tuples(), res.SPrime.Tuples()}
		images := [2][]relation.Tuple{px.img[0].rel.Tuples(), px.img[1].rel.Tuples()}
		var keyPos, eqPos [2][]int
		for side, view := range []*relation.Relation{res.RPrime, res.SPrime} {
			keyPos[side], _ = offsets(view.Schema(), cfg.ExtKey)
			if len(cfg.Identity) > 0 {
				eqPos[side], _ = offsets(view.Schema(), cfg.Identity[0].EqualityAttrs())
			}
		}
		refs := [2]refBuckets{newRefBuckets(rows[0], keyPos[0], eqPos[0]), newRefBuckets(rows[1], keyPos[1], eqPos[1])}
		if collide {
			// File every position of every index under hash zero.
			for side, im := range px.img {
				for _, ix := range im.ixs {
					one := relation.NewPosIndex()
					for _, row := range images[side] {
						one.Add(0, projection(ix.ix, row, ix.cols).joins)
					}
					ix.ix = one
				}
			}
		}
		holds := func(rt, st relation.Tuple) bool {
			for _, rule := range cfg.Identity {
				if rule.Holds(res.RPrime, rt, res.SPrime, st) || rule.Holds(res.SPrime, st, res.RPrime, rt) {
					return true
				}
			}
			return false
		}
		var sc Scratch
		for own := range rows {
			left, other := own == 0, 1-own
			for i, ext := range rows[own] {
				// §4.2 and §3.2 by nested loops: the tuples Equal on every
				// extended-key attribute, ascending, then those the rule pairs.
				var want []int
				for pass := 0; pass < 2; pass++ {
					for j, cand := range rows[other] {
						rt, st := cand, ext
						if left {
							rt, st = ext, cand
						}
						joins := pass == 1 && holds(rt, st)
						if pass == 0 {
							joins = true
							for n := range keyPos[own] {
								joins = joins && value.Equal(ext[keyPos[own][n]], cand[keyPos[other][n]])
							}
						}
						if joins && !slices.Contains(want, j) {
							want = append(want, j)
						}
					}
				}
				if !isHostile {
					old := append([]int(nil), refs[other].byKey[oldProjectionKey(ext, keyPos[own])]...)
					for _, j := range refs[other].blocks[oldProjectionKey(ext, eqPos[own])] {
						rt, st := rows[other][j], ext
						if left {
							rt, st = st, rt
						}
						if eqPos[own] != nil && !slices.Contains(old, j) && holds(rt, st) {
							old = append(old, j)
						}
					}
					if fmt.Sprint(old) != fmt.Sprint(want) {
						t.Fatalf("seed %d: the references disagree on tuple %d of side %d: string-keyed buckets %v, nested loops %v", seed, i, own, old, want)
					}
				}
				x := Extended{img: px.img[own], row: images[own][i]}
				if collide {
					for _, ix := range x.img.ixs {
						x.ixs, x.keys = append(x.ixs, ix), append(x.keys, projKey{joins: projection(ix.ix, x.row, ix.cols).joins})
					}
				}
				got := res.Probe(left, &x, &sc)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d: tuple %d %v of side %d: Probe finds %v, want %v (hostile %v, one hash %v, extended key %v, rules %v)",
						seed, i, ext, own, got, want, isHostile, collide, cfg.ExtKey, cfg.Identity)
				}
				matched += len(got)
			}
		}
	}
	if matched < 1000 {
		t.Fatalf("%d partners over all seeds: the domains are too sparse to mean anything", matched)
	}
}
