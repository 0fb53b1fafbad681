// Package datagen generates synthetic integration workloads with ground
// truth: a universe of real-world entities projected into two
// autonomous relations with different candidate keys, plus the ILFDs a
// DBA could plausibly supply. The generator reproduces, at scale, the
// structural features of the paper's examples:
//
//   - no common candidate key between R and S (Example 1),
//   - homonyms: distinct entities sharing a name (§3.1's Minneapolis /
//     St. Paul restaurants),
//   - category knowledge: a functional speciality→cuisine map, the
//     uniform ILFD family of Table 8,
//   - instance knowledge: per-entity ILFDs in the style of I5/I6, whose
//     coverage fraction is the knob behind the monotonicity experiments,
//   - partial overlap: entities modeled in one database only (Figure
//     1's e4), and
//   - dirty/missing data in a shared non-key attribute (phone), which
//     the probabilistic baselines lean on.
//
// Everything is deterministic given Config.Seed.
package datagen

import (
	"fmt"
	"math/rand"

	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/quality"
	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// Config parameterises workload generation.
type Config struct {
	// Entities is the size of the real-world universe.
	Entities int
	// OverlapFrac is the fraction of entities modeled in both databases
	// (the rest split evenly between R-only and S-only).
	OverlapFrac float64
	// HomonymRate is the fraction of entities that share their name with
	// another entity.
	HomonymRate float64
	// ILFDCoverage is the fraction of entities for which an instance
	// ILFD (name ∧ street → speciality) is available, i.e. how much of
	// R's missing extended-key attribute is derivable.
	ILFDCoverage float64
	// MissingPhone is the per-side probability that the shared phone
	// attribute is NULL.
	MissingPhone float64
	// DirtyPhone is the probability that a phone disagrees between the
	// two databases for the same entity.
	DirtyPhone float64
	// Seed drives the deterministic generator.
	Seed int64
}

// Validate checks the configuration ranges.
func (c Config) Validate() error {
	if c.Entities <= 0 {
		return fmt.Errorf("datagen: Entities = %d, want > 0", c.Entities)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"OverlapFrac", c.OverlapFrac},
		{"HomonymRate", c.HomonymRate},
		{"ILFDCoverage", c.ILFDCoverage},
		{"MissingPhone", c.MissingPhone},
		{"DirtyPhone", c.DirtyPhone},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("datagen: %s = %g, want [0,1]", f.name, f.v)
		}
	}
	return nil
}

// Entity is one ground-truth restaurant.
type Entity struct {
	ID         int
	Name       string
	Street     string
	City       string
	Speciality string
	Cuisine    string
	Phone      string
	InR, InS   bool
}

// Workload is a generated integration problem with ground truth.
type Workload struct {
	// R and S are the two autonomous relations.
	// R(name, street, cuisine, phone) with key (name, street);
	// S(name, city, speciality, phone) with key (name, city).
	R, S *relation.Relation
	// Entities is the ground-truth universe.
	Entities []Entity
	// Truth maps (R index, S index) pairs modeling the same entity.
	Truth quality.TruthSet
	// RToEntity and SToEntity map tuple positions to entity IDs.
	RToEntity, SToEntity []int
	// ILFDs holds the generated knowledge: the full speciality→cuisine
	// family plus instance ILFDs for the covered entities.
	ILFDs ilfd.Set
	// Attrs and ExtKey configure match.Build for this workload.
	Attrs  []match.AttrMap
	ExtKey []string
}

// The closed vocabularies. Cuisine is functionally determined by
// speciality, mirroring Table 8.
var specialityCuisine = [][2]string{
	{"hunan", "chinese"}, {"sichuan", "chinese"}, {"cantonese", "chinese"},
	{"gyros", "greek"}, {"souvlaki", "greek"},
	{"mughalai", "indian"}, {"tandoori", "indian"}, {"dosa", "indian"},
	{"sushi", "japanese"}, {"ramen", "japanese"},
	{"tacos", "mexican"}, {"mole", "mexican"},
	{"bbq", "american"}, {"burgers", "american"},
	{"pho", "vietnamese"}, {"banhmi", "vietnamese"},
}

var cities = []string{
	"minneapolis", "stpaul", "roseville", "burnsville", "edina",
	"bloomington", "eagan", "plymouth",
}

var nameStems = []string{
	"villagewok", "twincities", "oldcountry", "expresscafe", "anjuman",
	"itsgreek", "lakeside", "northstar", "riverview", "unionhall",
	"goldenleaf", "bluedoor", "redpepper", "silverspoon", "greengarden",
}

// Generate builds a workload from the configuration.
func Generate(cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	entities := make([]Entity, cfg.Entities)
	// Candidate-key uniqueness across the whole universe: (name, street)
	// is R's key and (name, city) is S's key, so regenerate street/city
	// until both projections are fresh.
	usedNS := map[string]bool{}    // name+street
	usedNC := map[string]bool{}    // name+city
	usedNSpec := map[string]bool{} // name+speciality
	// Name assignment with controlled homonyms: a homonym entity reuses
	// the previous entity's name; everyone else gets a unique name built
	// from a stem plus its id.
	for i := range entities {
		sc := specialityCuisine[rng.Intn(len(specialityCuisine))]
		e := Entity{
			ID:         i,
			Street:     fmt.Sprintf("%d %s st", 100+rng.Intn(9900), nameStems[rng.Intn(len(nameStems))]),
			City:       cities[rng.Intn(len(cities))],
			Speciality: sc[0],
			Cuisine:    sc[1],
			Phone:      fmt.Sprintf("612-%03d-%04d", rng.Intn(1000), rng.Intn(10000)),
		}
		if i > 0 && rng.Float64() < cfg.HomonymRate {
			// A homonym elsewhere in town: same name, necessarily a
			// different street and city (the paper's Minneapolis-vs-
			// St. Paul situation, and what R's and S's keys require).
			e.Name = entities[i-1].Name
		} else {
			e.Name = fmt.Sprintf("%s-%d", nameStems[rng.Intn(len(nameStems))], i)
		}
		for usedNS[e.Name+"\x1f"+e.Street] {
			e.Street = fmt.Sprintf("%d %s st", 100+rng.Intn(9900), nameStems[rng.Intn(len(nameStems))])
		}
		for usedNC[e.Name+"\x1f"+e.City] {
			e.City = fmt.Sprintf("%s-%d", cities[rng.Intn(len(cities))], rng.Intn(1000))
		}
		// The workload's extended key is {name, cuisine, speciality}; for
		// it to be a key of the integrated world (the §4.1 definition),
		// same-named entities must differ in speciality. Homonym sets
		// larger than the vocabulary would exhaust this loop, so spread
		// over both speciality and a numbered cuisine-preserving variant.
		for n := 0; usedNSpec[e.Name+"\x1f"+e.Speciality]; n++ {
			sc2 := specialityCuisine[rng.Intn(len(specialityCuisine))]
			e.Speciality, e.Cuisine = sc2[0], sc2[1]
			if n >= len(specialityCuisine) {
				e.Speciality = fmt.Sprintf("%s-%d", sc2[0], rng.Intn(1000000))
			}
		}
		usedNS[e.Name+"\x1f"+e.Street] = true
		usedNC[e.Name+"\x1f"+e.City] = true
		usedNSpec[e.Name+"\x1f"+e.Speciality] = true
		// Membership: overlap fraction in both, remainder split.
		switch f := rng.Float64(); {
		case f < cfg.OverlapFrac:
			e.InR, e.InS = true, true
		case f < cfg.OverlapFrac+(1-cfg.OverlapFrac)/2:
			e.InR = true
		default:
			e.InS = true
		}
		entities[i] = e
	}

	rSchema := schema.MustNew("R",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "street", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
			{Name: "phone", Kind: value.KindString},
		},
		[]string{"name", "street"},
	)
	sSchema := schema.MustNew("S",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "city", Kind: value.KindString},
			{Name: "speciality", Kind: value.KindString},
			{Name: "phone", Kind: value.KindString},
		},
		[]string{"name", "city"},
	)
	w := &Workload{
		R:        relation.New(rSchema),
		S:        relation.New(sSchema),
		Entities: entities,
		Truth:    quality.TruthSet{},
		Attrs: []match.AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "street", R: "street", S: ""},
			{Name: "city", R: "", S: "city"},
			{Name: "cuisine", R: "cuisine", S: ""},
			{Name: "speciality", R: "", S: "speciality"},
			{Name: "phone", R: "phone", S: "phone"},
		},
		ExtKey: []string{"name", "cuisine", "speciality"},
	}

	phone := func(e Entity, dirty bool) value.Value {
		if rng.Float64() < cfg.MissingPhone {
			return value.Null
		}
		if dirty && rng.Float64() < cfg.DirtyPhone {
			return value.String(fmt.Sprintf("612-%03d-%04d", rng.Intn(1000), rng.Intn(10000)))
		}
		return value.String(e.Phone)
	}

	rIdx := map[int]int{}
	sIdx := map[int]int{}
	for _, e := range entities {
		if e.InR {
			err := w.R.Insert(relation.Tuple{
				value.String(e.Name), value.String(e.Street),
				value.String(e.Cuisine), phone(e, false),
			})
			if err != nil {
				return nil, fmt.Errorf("datagen: R insert: %w", err)
			}
			rIdx[e.ID] = w.R.Len() - 1
			w.RToEntity = append(w.RToEntity, e.ID)
		}
		if e.InS {
			err := w.S.Insert(relation.Tuple{
				value.String(e.Name), value.String(e.City),
				value.String(e.Speciality), phone(e, true),
			})
			if err != nil {
				return nil, fmt.Errorf("datagen: S insert: %w", err)
			}
			sIdx[e.ID] = w.S.Len() - 1
			w.SToEntity = append(w.SToEntity, e.ID)
		}
		if e.InR && e.InS {
			w.Truth[[2]int{rIdx[e.ID], sIdx[e.ID]}] = true
		}
	}

	// Knowledge: the full uniform speciality→cuisine family, taken from
	// the values actually present in the universe (homonym spreading can
	// mint speciality variants beyond the base vocabulary).
	seenSpec := map[string]bool{}
	for _, e := range entities {
		if seenSpec[e.Speciality] {
			continue
		}
		seenSpec[e.Speciality] = true
		w.ILFDs = append(w.ILFDs, ilfd.MustNew(
			ilfd.Conditions{ilfd.C("speciality", e.Speciality)},
			ilfd.Conditions{ilfd.C("cuisine", e.Cuisine)},
		))
	}
	// …plus instance ILFDs (name ∧ street → speciality) for a covered
	// fraction of R-resident entities, the I5/I6 pattern.
	for _, e := range entities {
		if !e.InR {
			continue
		}
		if rng.Float64() < cfg.ILFDCoverage {
			w.ILFDs = append(w.ILFDs, ilfd.MustNew(
				ilfd.Conditions{ilfd.C("name", e.Name), ilfd.C("street", e.Street)},
				ilfd.Conditions{ilfd.C("speciality", e.Speciality)},
			))
		}
	}
	return w, nil
}

// MustGenerate panics on error; for benchmarks and examples.
func MustGenerate(cfg Config) *Workload {
	w, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// MatchConfig assembles the match.Config for this workload.
func (w *Workload) MatchConfig() match.Config {
	return match.Config{
		R:      w.R,
		S:      w.S,
		Attrs:  w.Attrs,
		ExtKey: w.ExtKey,
		ILFDs:  w.ILFDs,
	}
}

// ScaleMatchConfig is the canonical perf workload of internal/match's
// BenchmarkScale* benchmarks: ~2k×2k tuples, a blocked identity rule
// (name ∧ phone) that carries the bulk of the matching table, light
// instance-ILFD coverage so the distinctness-rule set stays
// representative without drowning the sweep in rules. Deterministic
// (fixed seed), so timings across PRs measure the engine, not the data.
func ScaleMatchConfig() match.Config {
	w := MustGenerate(Config{
		Entities:    2700, // ≈2k tuples per side at 0.5 overlap
		OverlapFrac: 0.5,
		HomonymRate: 0.05,
		// Instance-ILFD coverage is deliberately light: each covered
		// entity mints a Prop.-1 distinctness rule, and the sweep cost is
		// |R|·|S|·|rules| — 1% keeps the rule set at a realistic dozens,
		// not thousands.
		ILFDCoverage: 0.01,
		Seed:         424242,
	})
	cfg := w.MatchConfig()
	cfg.Identity = []rules.IdentityRule{rules.MustNewIdentity("name-phone", []rules.Predicate{
		{Left: rules.Attr1("name"), Op: rules.Eq, Right: rules.Attr2("name")},
		{Left: rules.Attr1("phone"), Op: rules.Eq, Right: rules.Attr2("phone")},
	})}
	return cfg
}

// CoveredTruth counts the truth pairs whose R-side entity has an
// instance ILFD, i.e. the recall ceiling of the paper's technique on
// this workload.
func (w *Workload) CoveredTruth() int {
	covered := map[string]bool{}
	for _, f := range w.ILFDs {
		if len(f.Antecedent) == 2 && len(f.Consequent) == 1 && f.Consequent[0].Attr == "speciality" {
			covered[f.Antecedent.String()] = true
		}
	}
	n := 0
	for pair := range w.Truth {
		e := w.Entities[w.RToEntity[pair[0]]]
		key := ilfd.Conditions{ilfd.C("name", e.Name), ilfd.C("street", e.Street)}.Normalize()
		if covered[key.String()] {
			n++
		}
	}
	return n
}
