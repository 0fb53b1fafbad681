package hub

// The sequential reference model the simulator (sim_test.go) holds the
// hub to: §3–4 of the paper with no concurrency, no log and no cache.
// Every accepted tuple lives in one relation per source; every linked
// pair's matching table is match.Build's reference path (Config.Naive:
// nested loops over R′×S′, §4.2) over those relations, held to §3.2 by
// Result.Verify; the global partition is the transitive closure of the
// tables in a plain union-find, held to §3.2 transitively (a cluster
// has at most one tuple per source); a merged view is resolve.Reduce
// over the members' values. A mutation is decided by building the state
// it would produce and verifying that state — never by looking at what
// the mutation adds — so the model shares no step with the hub's commit
// path (prepare / check / append / apply / fold); it answers what
// Fagin et al. call the certain answers, and the hub may serve nothing
// else.

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/resolve"
	"entityid/internal/value"
)

// The model's reasons for refusing a mutation, comparable with the
// class of the error the hub gave (sim_test.go's classOf).
var (
	errModelTuple      = errors.New("model: tuple refused by its source (unknown source, shape, candidate key)")
	errModelTopology   = errors.New("model: registration refused (name, sources, attribute names)")
	errModelUnique     = errors.New("model: §3.2 uniqueness violated in a pair's matching table")
	errModelConsistent = errors.New("model: §3.2 consistency violated in a pair's matching table")
	errModelTransitive = errors.New("model: §3.2 uniqueness violated transitively")
)

// modelLink is one linked pair: its knowledge and the verified reference
// result over the sources' current tuples.
type modelLink struct {
	spec   PairSpec
	li, ri int
	res    *match.Result
}

type model struct {
	names  []string
	rels   []*relation.Relation
	attrOf []map[string]string // per source: integrated name -> source attribute
	links  []modelLink
	// history is every accepted mutation, in order: replaying a prefix
	// onto an empty model is that prefix's state, which is how "the
	// served state is some committed prefix" is checked after a recovery
	// that may have lost a tail (simRun.reopen).
	history []func(*model) error
}

func (m *model) source(name string) int {
	for i, n := range m.names {
		if n == name {
			return i
		}
	}
	return -1
}

func (m *model) addSource(name string, seed *relation.Relation) error {
	if name == "" || seed == nil || m.source(name) >= 0 {
		return errModelTopology
	}
	m.names = append(m.names, name)
	m.rels = append(m.rels, seed.Clone())
	m.attrOf = append(m.attrOf, map[string]string{})
	m.history = append(m.history, func(m *model) error { return m.addSource(name, seed) })
	return nil
}

// build is the reference result of a link over the given sides.
func build(spec PairSpec, r, s *relation.Relation) (*match.Result, error) {
	res, err := match.Build(match.Config{
		R: r, S: s, Attrs: spec.Attrs, ExtKey: spec.ExtKey, ILFDs: spec.ILFDs,
		Identity: spec.Identity, Distinct: spec.Distinct,
		Naive: true,
	})
	if err != nil {
		return nil, errModelTopology
	}
	if err := res.Verify(); err != nil {
		if errors.Is(err, match.ErrConsistency) {
			return nil, errModelConsistent
		}
		return nil, errModelUnique
	}
	return res, nil
}

func (m *model) link(spec PairSpec) error {
	li, ri := m.source(spec.Left), m.source(spec.Right)
	if li < 0 || ri < 0 || li == ri {
		return errModelTopology
	}
	for _, l := range m.links {
		if (l.li == li && l.ri == ri) || (l.li == ri && l.ri == li) {
			return errModelTopology
		}
	}
	// One integrated name, one attribute per source, across all its links.
	for _, am := range spec.Attrs {
		if prev, ok := m.attrOf[li][am.Name]; ok && am.R != "" && prev != am.R {
			return errModelTopology
		}
		if prev, ok := m.attrOf[ri][am.Name]; ok && am.S != "" && prev != am.S {
			return errModelTopology
		}
	}
	res, err := build(spec, m.rels[li], m.rels[ri])
	if err != nil {
		return err
	}
	cand := append(append([]modelLink(nil), m.links...), modelLink{spec: spec, li: li, ri: ri, res: res})
	if _, err := closure(m.rels, cand); err != nil {
		return err
	}
	m.links = cand
	for _, am := range spec.Attrs {
		if am.R != "" {
			m.attrOf[li][am.Name] = am.R
		}
		if am.S != "" {
			m.attrOf[ri][am.Name] = am.S
		}
	}
	m.history = append(m.history, func(m *model) error { return m.link(spec) })
	return nil
}

func (m *model) insert(source string, t relation.Tuple) error {
	si := m.source(source)
	if si < 0 {
		return errModelTuple
	}
	cand := m.rels[si].Clone()
	if err := cand.Insert(t.Clone()); err != nil {
		return errModelTuple
	}
	rels := append([]*relation.Relation(nil), m.rels...)
	rels[si] = cand
	links := append([]modelLink(nil), m.links...)
	for i, l := range links {
		if l.li != si && l.ri != si {
			continue
		}
		res, err := build(l.spec, rels[l.li], rels[l.ri])
		if err != nil {
			return err
		}
		links[i].res = res
	}
	if _, err := closure(rels, links); err != nil {
		return err
	}
	m.rels, m.links = rels, links
	m.history = append(m.history, func(m *model) error { return m.insert(source, t) })
	return nil
}

// refuses reports whether the model refuses it in its current state,
// leaving the model as it was.
func (m *model) refuses(it Insert) bool {
	was := *m // insert replaces what it changes, it does not write through
	if m.insert(it.Source, it.Tuple) != nil {
		return true
	}
	*m = was
	return false
}

// modelNode is one tuple: source ordinal, position.
type modelNode [2]int

// closure folds the links' matching tables into the partition of all
// tuples — singletons included, members by (source, position), clusters
// by first member — and fails if a cluster holds two tuples of a source.
func closure(rels []*relation.Relation, links []modelLink) ([][]modelNode, error) {
	base := make([]int, len(rels)+1)
	for i, r := range rels {
		base[i+1] = base[i] + r.Len()
	}
	parent := make([]int, base[len(rels)])
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, l := range links {
		for p := range l.res.MT.All() {
			parent[find(base[l.li]+p.RIndex)] = find(base[l.ri] + p.SIndex)
		}
	}
	byRoot := map[int][]modelNode{}
	var roots []int
	for si, r := range rels {
		for i := 0; i < r.Len(); i++ { // ascending (source, position): members and roots come out sorted
			root := find(base[si] + i)
			if len(byRoot[root]) == 0 {
				roots = append(roots, root)
			}
			for _, m := range byRoot[root] {
				if m[0] == si {
					return nil, errModelTransitive
				}
			}
			byRoot[root] = append(byRoot[root], modelNode{si, i})
		}
	}
	out := make([][]modelNode, len(roots))
	for i, root := range roots {
		out[i] = byRoot[root]
	}
	return out, nil
}

// clusters is the partition as the hub serves it: Cluster values with
// the ID of the first member.
func (m *model) clusters() []Cluster {
	part, err := closure(m.rels, m.links)
	if err != nil {
		panic("model: accepted state violates transitive uniqueness")
	}
	out := make([]Cluster, len(part))
	for i, ns := range part {
		c := Cluster{ID: fmt.Sprintf("%s/%d", m.names[ns[0][0]], ns[0][1])}
		for _, n := range ns {
			c.Members = append(c.Members, Member{Source: m.names[n[0]], Index: n[1], Tuple: m.rels[n[0]].Tuple(n[1])})
		}
		out[i] = c
	}
	return out
}

// table is a link's matching table, sorted.
func (l modelLink) table() []match.Pair {
	return slices.Collect(l.res.MT.All()) // Build sorts
}

// merged is §2's attribute-value-conflict resolution over a cluster: per
// integrated attribute any member's source models, the members' values
// in member order through resolve.Reduce.
func (m *model) merged(c Cluster, st resolve.Strategy) (map[string]value.Value, []string, error) {
	names := map[string]bool{}
	for _, mem := range c.Members {
		for name := range m.attrOf[m.source(mem.Source)] {
			names[name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	values, conflicts := map[string]value.Value{}, []string(nil)
	for _, name := range sorted {
		var vals []value.Value
		for _, mem := range c.Members {
			si := m.source(mem.Source)
			if attr, ok := m.attrOf[si][name]; ok {
				vals = append(vals, mem.Tuple[m.rels[si].Schema().Index(attr)])
			}
		}
		v, conflicted, err := resolve.Reduce(st, vals...)
		if err != nil {
			return nil, nil, err
		}
		if conflicted {
			conflicts = append(conflicts, name)
		}
		if !v.IsNull() {
			values[name] = v
		}
	}
	return values, conflicts, nil
}
