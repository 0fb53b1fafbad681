// Multi-source workload generation: the K-source generalisation of the
// two-relation workload, for the hub subsystem. A universe of
// restaurant entities is projected into K autonomous sources — each
// with its own key attribute, its own subset of entities, and
// alternating knowledge (even sources record cuisine, odd sources
// record speciality, the paper's Table 5 split) — so every source pair
// reproduces the paper's situation: no common candidate key, matching
// only through the extended key {name, cuisine} with cuisine derived
// via the uniform speciality→cuisine ILFD family where a side lacks
// it.
package datagen

import (
	"fmt"
	"math/rand"
	"sort"

	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// MultiConfig parameterises K-source workload generation.
type MultiConfig struct {
	// Sources is K, the number of autonomous sources (>= 1; K=1 is the
	// degenerate federation with no links, every tuple its own entity).
	Sources int
	// Entities is the size of the real-world universe (>= 0; 0 plants
	// an empty universe — every source is empty and the ground truth is
	// the empty partition).
	Entities int
	// PresenceFrac is the per-source probability that an entity is
	// modeled by the source (presence is independent per source, so
	// cross-source overlap is PresenceFrac² per pair in expectation).
	PresenceFrac float64
	// HomonymRate is the fraction of entities sharing their name with
	// another entity (forced onto a different cuisine, so the extended
	// key stays a key of the integrated world).
	HomonymRate float64
	// MissingPhone / DirtyPhone control per-source phone noise, the
	// attribute the merged cross-source view surfaces conflicts on.
	MissingPhone, DirtyPhone float64
	// Seed drives the deterministic generator.
	Seed int64
}

// Validate checks the configuration ranges. The degenerate corners are
// legal: a single source yields a linkless hub with singleton ground
// truth, and an empty universe (or PresenceFrac 0) yields empty
// sources with empty ground truth — both must produce trivially valid
// workloads, not degenerate specs (crash-recovery harnesses sweep
// these corners).
func (c MultiConfig) Validate() error {
	if c.Sources < 1 {
		return fmt.Errorf("datagen: Sources = %d, want >= 1", c.Sources)
	}
	if c.Entities < 0 {
		return fmt.Errorf("datagen: Entities = %d, want >= 0", c.Entities)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"PresenceFrac", c.PresenceFrac},
		{"HomonymRate", c.HomonymRate},
		{"MissingPhone", c.MissingPhone},
		{"DirtyPhone", c.DirtyPhone},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("datagen: %s = %g, want [0,1]", f.name, f.v)
		}
	}
	return nil
}

// MultiWorkload is a generated K-source integration problem with
// ground truth.
type MultiWorkload struct {
	// Names and Relations hold the K sources in order. Source k's
	// schema is (name, loc, cuisine|speciality, phone) with key
	// (name, loc): even sources record cuisine, odd record speciality.
	Names     []string
	Relations []*relation.Relation
	// ToEntity maps (source, tuple position) to entity ID.
	ToEntity [][]int
	// ILFDs is the uniform speciality→cuisine family over the
	// vocabulary the universe actually uses.
	ILFDs ilfd.Set
}

// multiEntity is one ground-truth entity of the K-source universe.
type multiEntity struct {
	name, speciality, cuisine, phone string
}

// MultiGenerate builds a K-source workload from the configuration.
func MultiGenerate(cfg MultiConfig) (*MultiWorkload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Universe: names unique except controlled homonyms; (name, cuisine)
	// unique outright, because {name, cuisine} is every pair's extended
	// key and must be a key of the integrated world (§4.1).
	entities := make([]multiEntity, cfg.Entities)
	usedNC := map[string]bool{}
	for i := range entities {
		sc := specialityCuisine[rng.Intn(len(specialityCuisine))]
		e := multiEntity{
			speciality: sc[0],
			cuisine:    sc[1],
			phone:      fmt.Sprintf("612-%03d-%04d", rng.Intn(1000), rng.Intn(10000)),
		}
		if i > 0 && rng.Float64() < cfg.HomonymRate {
			e.name = entities[i-1].name
		} else {
			e.name = fmt.Sprintf("%s-%d", nameStems[rng.Intn(len(nameStems))], i)
		}
		// Force (name, cuisine) uniqueness; a homonym chain that exhausts
		// the cuisine vocabulary falls back to a fresh unique name.
		for tries := 0; usedNC[e.name+"\x1f"+e.cuisine]; tries++ {
			if tries >= 4*len(specialityCuisine) {
				e.name = fmt.Sprintf("%s-%d", nameStems[rng.Intn(len(nameStems))], i)
				continue
			}
			sc = specialityCuisine[rng.Intn(len(specialityCuisine))]
			e.speciality, e.cuisine = sc[0], sc[1]
		}
		usedNC[e.name+"\x1f"+e.cuisine] = true
		entities[i] = e
	}

	w := &MultiWorkload{}
	for k := 0; k < cfg.Sources; k++ {
		name := fmt.Sprintf("src%d", k)
		know := "cuisine"
		if k%2 == 1 {
			know = "speciality"
		}
		sch := schema.MustNew(name,
			[]schema.Attribute{
				{Name: "name", Kind: value.KindString},
				{Name: "loc", Kind: value.KindString},
				{Name: know, Kind: value.KindString},
				{Name: "phone", Kind: value.KindString},
			},
			[]string{"name", "loc"},
		)
		w.Names = append(w.Names, name)
		w.Relations = append(w.Relations, relation.New(sch))
		w.ToEntity = append(w.ToEntity, nil)
	}

	for id, e := range entities {
		for k := 0; k < cfg.Sources; k++ {
			if rng.Float64() >= cfg.PresenceFrac {
				continue
			}
			rel := w.Relations[k]
			// Source-local key component, regenerated until (name, loc)
			// is fresh within the source.
			loc := fmt.Sprintf("%d %s st", 100+rng.Intn(9900), nameStems[rng.Intn(len(nameStems))])
			for rel.LookupKey(value.String(e.name), value.String(loc)) >= 0 {
				loc = fmt.Sprintf("%d %s st", 100+rng.Intn(9900), nameStems[rng.Intn(len(nameStems))])
			}
			phone := value.String(e.phone)
			if rng.Float64() < cfg.MissingPhone {
				phone = value.Null
			} else if rng.Float64() < cfg.DirtyPhone {
				phone = value.String(fmt.Sprintf("612-%03d-%04d", rng.Intn(1000), rng.Intn(10000)))
			}
			know := value.String(e.cuisine)
			if k%2 == 1 {
				know = value.String(e.speciality)
			}
			t := relation.Tuple{value.String(e.name), value.String(loc), know, phone}
			if err := rel.Insert(t); err != nil {
				return nil, fmt.Errorf("datagen: source %s insert: %w", w.Names[k], err)
			}
			w.ToEntity[k] = append(w.ToEntity[k], id)
		}
	}

	// Knowledge: the uniform speciality→cuisine family over the
	// specialities the universe uses (Table 8's ILFD table as rules).
	seenSpec := map[string]bool{}
	for _, e := range entities {
		if seenSpec[e.speciality] {
			continue
		}
		seenSpec[e.speciality] = true
		w.ILFDs = append(w.ILFDs, ilfd.MustNew(
			ilfd.Conditions{ilfd.C("speciality", e.speciality)},
			ilfd.Conditions{ilfd.C("cuisine", e.cuisine)},
		))
	}
	return w, nil
}

// MustMultiGenerate panics on error; for benchmarks and examples.
func MustMultiGenerate(cfg MultiConfig) *MultiWorkload {
	w, err := MultiGenerate(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// MultiPair is the identification knowledge for one source pair,
// expressed over match types so the hub layer (or a direct match
// caller) can assemble it into its own configuration.
type MultiPair struct {
	Left, Right string
	Attrs       []match.AttrMap
	ExtKey      []string
	ILFDs       ilfd.Set
}

// Pair assembles the link knowledge between sources i and j: attribute
// correspondences with per-source loc attributes kept apart, the
// {name, cuisine} extended key, and the uniform ILFD family whenever a
// side needs cuisine derived from speciality.
func (w *MultiWorkload) Pair(i, j int) MultiPair {
	spec := MultiPair{
		Left:   w.Names[i],
		Right:  w.Names[j],
		ExtKey: []string{"name", "cuisine"},
		Attrs: []match.AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "loc_" + w.Names[i], R: "loc", S: ""},
			{Name: "loc_" + w.Names[j], R: "", S: "loc"},
			{Name: "phone", R: "phone", S: "phone"},
		},
	}
	cuisine := match.AttrMap{Name: "cuisine"}
	if i%2 == 0 {
		cuisine.R = "cuisine"
	}
	if j%2 == 0 {
		cuisine.S = "cuisine"
	}
	spec.Attrs = append(spec.Attrs, cuisine)
	if i%2 == 1 || j%2 == 1 {
		speciality := match.AttrMap{Name: "speciality"}
		if i%2 == 1 {
			speciality.R = "speciality"
		}
		if j%2 == 1 {
			speciality.S = "speciality"
		}
		spec.Attrs = append(spec.Attrs, speciality)
		spec.ILFDs = w.ILFDs
	}
	return spec
}

// TruthClusters returns the expected global partition: for every
// entity present in at least one source, its member list as
// (source ordinal, tuple position) pairs, sorted; clusters sorted by
// their first member.
func (w *MultiWorkload) TruthClusters() [][][2]int {
	byEntity := map[int][][2]int{}
	for k := range w.Relations {
		for idx, id := range w.ToEntity[k] {
			byEntity[id] = append(byEntity[id], [2]int{k, idx})
		}
	}
	out := make([][][2]int, 0, len(byEntity))
	for _, members := range byEntity {
		sort.Slice(members, func(a, b int) bool {
			if members[a][0] != members[b][0] {
				return members[a][0] < members[b][0]
			}
			return members[a][1] < members[b][1]
		})
		out = append(out, members)
	}
	sort.Slice(out, func(a, b int) bool {
		ma, mb := out[a][0], out[b][0]
		if ma[0] != mb[0] {
			return ma[0] < mb[0]
		}
		return ma[1] < mb[1]
	})
	return out
}
