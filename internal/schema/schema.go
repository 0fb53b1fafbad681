// Package schema describes relation schemas: named attributes with typed
// domains and one or more candidate keys.
//
// The entity-identification problem is posed at the instance level; the
// schema package only records the results of the (out-of-scope) schema
// integration phase (§3.1): which attributes exist and which attribute
// combinations are candidate keys. Which attributes of two relations are
// semantically equivalent is match.AttrMap's to say.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"entityid/internal/value"
)

// Attribute is a named, typed column of a relation. The zero Kind
// (value.KindNull) defaults to string on schema construction, so
// literal attribute lists may omit it; no stored attribute ever has
// kind null (KindOf reserves that for "attribute absent").
type Attribute struct {
	Name string
	Kind value.Kind
}

// Schema describes a relation: its name, ordered attributes, and candidate
// keys. Each candidate key is a set of attribute names; per the paper
// (§3.1, footnote 1), a relation with no declared key is treated as having
// its entire attribute set as the key.
type Schema struct {
	name  string
	attrs []Attribute
	index map[string]int
	keys  [][]string
}

// New builds a schema. Attribute names must be unique and non-empty; each
// key must reference declared attributes. If no keys are given, the entire
// attribute set becomes the single candidate key.
func New(name string, attrs []Attribute, keys ...[]string) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: relation name is empty")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("schema %s: no attributes", name)
	}
	s := &Schema{
		name:  name,
		attrs: append([]Attribute(nil), attrs...),
		index: make(map[string]int, len(attrs)),
	}
	for i, a := range s.attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("schema %s: attribute %d has empty name", name, i)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("schema %s: duplicate attribute %q", name, a.Name)
		}
		if a.Kind == value.KindNull {
			s.attrs[i].Kind = value.KindString
		}
		s.index[a.Name] = i
	}
	if len(keys) == 0 {
		all := make([]string, len(attrs))
		for i, a := range s.attrs {
			all[i] = a.Name
		}
		keys = [][]string{all}
	}
	for _, k := range keys {
		if len(k) == 0 {
			return nil, fmt.Errorf("schema %s: empty candidate key", name)
		}
		seen := map[string]bool{}
		kk := append([]string(nil), k...)
		for _, a := range kk {
			if _, ok := s.index[a]; !ok {
				return nil, fmt.Errorf("schema %s: key attribute %q not declared", name, a)
			}
			if seen[a] {
				return nil, fmt.Errorf("schema %s: key repeats attribute %q", name, a)
			}
			seen[a] = true
		}
		s.keys = append(s.keys, kk)
	}
	return s, nil
}

// MustNew is New that panics on error; for literals in tests and examples.
func MustNew(name string, attrs []Attribute, keys ...[]string) *Schema {
	s, err := New(name, attrs, keys...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the relation name.
func (s *Schema) Name() string { return s.name }

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attrs returns a copy of the attribute list in declaration order.
func (s *Schema) Attrs() []Attribute {
	return append([]Attribute(nil), s.attrs...)
}

// AttrNames returns the attribute names in declaration order.
func (s *Schema) AttrNames() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// Index returns the position of the named attribute, or -1 if absent.
func (s *Schema) Index(attr string) int {
	i, ok := s.index[attr]
	if !ok {
		return -1
	}
	return i
}

// Has reports whether the schema declares the named attribute.
func (s *Schema) Has(attr string) bool { return s.Index(attr) >= 0 }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// KindOf returns the declared kind of the named attribute; KindNull if the
// attribute is not declared.
func (s *Schema) KindOf(attr string) value.Kind {
	i := s.Index(attr)
	if i < 0 {
		return value.KindNull
	}
	return s.attrs[i].Kind
}

// Keys returns copies of the candidate keys. The first key is the primary
// identification key K_R used in matching tables.
func (s *Schema) Keys() [][]string {
	out := make([][]string, len(s.keys))
	for i, k := range s.keys {
		out[i] = append([]string(nil), k...)
	}
	return out
}

// PrimaryKey returns a copy of the first candidate key.
func (s *Schema) PrimaryKey() []string {
	return append([]string(nil), s.keys[0]...)
}

// IsKey reports whether attrs is exactly one of the declared candidate
// keys (order-insensitive).
func (s *Schema) IsKey(attrs []string) bool {
	want := sortedCopy(attrs)
	for _, k := range s.keys {
		if equalStrings(sortedCopy(k), want) {
			return true
		}
	}
	return false
}

// Extend returns a new schema with the given attributes appended. It is
// the schema-level counterpart of the paper's R → R′ extension step: the
// extended relation carries the missing extended-key attributes. Candidate
// keys are preserved. Extending with an attribute that already exists is
// an error.
func (s *Schema) Extend(name string, extra []Attribute) (*Schema, error) {
	attrs := append(s.Attrs(), extra...)
	return New(name, attrs, s.Keys()...)
}

// Project returns a new schema containing only the named attributes, in
// the given order, with the whole projection as its key (projection does
// not in general preserve keys).
func (s *Schema) Project(name string, attrs []string) (*Schema, error) {
	out := make([]Attribute, 0, len(attrs))
	for _, a := range attrs {
		i := s.Index(a)
		if i < 0 {
			return nil, fmt.Errorf("schema %s: project: no attribute %q", s.name, a)
		}
		out = append(out, s.attrs[i])
	}
	return New(name, out)
}

// Equal reports whether two schemas have the same name, attributes (in
// order, with kinds) and candidate keys (in order).
func (s *Schema) Equal(o *Schema) bool {
	if s.name != o.name || len(s.attrs) != len(o.attrs) || len(s.keys) != len(o.keys) {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] {
			return false
		}
	}
	for i := range s.keys {
		if !equalStrings(s.keys[i], o.keys[i]) {
			return false
		}
	}
	return true
}

// String renders the schema as Name(attr:kind, ..., key=(a,b)).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('(')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", a.Name, a.Kind)
	}
	for _, k := range s.keys {
		fmt.Fprintf(&b, ", key=(%s)", strings.Join(k, ","))
	}
	b.WriteByte(')')
	return b.String()
}

func sortedCopy(ss []string) []string {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
