package schema

import (
	"strings"
	"testing"

	"entityid/internal/value"
)

func restaurantR(t *testing.T) *Schema {
	t.Helper()
	s, err := New("R",
		[]Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "street", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
		},
		[]string{"name", "street"},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNewBasics(t *testing.T) {
	s := restaurantR(t)
	if s.Name() != "R" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.Arity() != 3 {
		t.Errorf("Arity = %d", s.Arity())
	}
	want := []string{"name", "street", "cuisine"}
	got := s.AttrNames()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("AttrNames[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if s.Index("cuisine") != 2 {
		t.Errorf("Index(cuisine) = %d", s.Index("cuisine"))
	}
	if s.Index("bogus") != -1 {
		t.Errorf("Index(bogus) = %d", s.Index("bogus"))
	}
	if !s.Has("street") || s.Has("city") {
		t.Error("Has misreports")
	}
	if s.KindOf("name") != value.KindString {
		t.Errorf("KindOf(name) = %v", s.KindOf("name"))
	}
	if s.KindOf("bogus") != value.KindNull {
		t.Errorf("KindOf(bogus) = %v", s.KindOf("bogus"))
	}
	if got := s.Attr(1).Name; got != "street" {
		t.Errorf("Attr(1) = %q", got)
	}
}

func TestNewValidation(t *testing.T) {
	attrs := []Attribute{{Name: "a", Kind: value.KindString}}
	cases := []struct {
		name    string
		relName string
		attrs   []Attribute
		keys    [][]string
		wantErr string
	}{
		{"empty name", "", attrs, nil, "name is empty"},
		{"no attrs", "R", nil, nil, "no attributes"},
		{"empty attr name", "R", []Attribute{{Name: ""}}, nil, "empty name"},
		{"dup attr", "R", []Attribute{{Name: "a"}, {Name: "a"}}, nil, "duplicate attribute"},
		{"empty key", "R", attrs, [][]string{{}}, "empty candidate key"},
		{"unknown key attr", "R", attrs, [][]string{{"z"}}, "not declared"},
		{"repeated key attr", "R", []Attribute{{Name: "a"}, {Name: "b"}}, [][]string{{"a", "a"}}, "repeats attribute"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.relName, c.attrs, c.keys...)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("New error = %v, want contains %q", err, c.wantErr)
			}
		})
	}
}

func TestDefaultKeyIsAllAttributes(t *testing.T) {
	// Paper §3.1 fn.1: with no declared key, the entire attribute set is
	// treated as the key.
	s := MustNew("R", []Attribute{{Name: "a"}, {Name: "b"}})
	keys := s.Keys()
	if len(keys) != 1 {
		t.Fatalf("Keys len = %d", len(keys))
	}
	if !s.IsKey([]string{"b", "a"}) {
		t.Error("IsKey(all attrs, reordered) = false")
	}
}

func TestPrimaryKeyAndIsKey(t *testing.T) {
	s := restaurantR(t)
	pk := s.PrimaryKey()
	if len(pk) != 2 || pk[0] != "name" || pk[1] != "street" {
		t.Errorf("PrimaryKey = %v", pk)
	}
	if !s.IsKey([]string{"street", "name"}) {
		t.Error("IsKey order-insensitive failed")
	}
	if s.IsKey([]string{"name"}) {
		t.Error("IsKey subset wrongly true")
	}
	// Mutating the returned slices must not affect the schema.
	pk[0] = "hacked"
	if s.PrimaryKey()[0] != "name" {
		t.Error("PrimaryKey aliasing")
	}
	ks := s.Keys()
	ks[0][0] = "hacked"
	if s.Keys()[0][0] != "name" {
		t.Error("Keys aliasing")
	}
}

func TestExtend(t *testing.T) {
	s := restaurantR(t)
	ext, err := s.Extend("R'", []Attribute{{Name: "speciality", Kind: value.KindString}})
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if ext.Arity() != 4 || !ext.Has("speciality") {
		t.Errorf("extended schema wrong: %v", ext)
	}
	if !ext.IsKey([]string{"name", "street"}) {
		t.Error("Extend dropped candidate key")
	}
	if _, err := s.Extend("bad", []Attribute{{Name: "name"}}); err == nil {
		t.Error("Extend with duplicate attribute did not fail")
	}
}

func TestProject(t *testing.T) {
	s := restaurantR(t)
	p, err := s.Project("P", []string{"cuisine", "name"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.Arity() != 2 || p.AttrNames()[0] != "cuisine" {
		t.Errorf("projected schema = %v", p)
	}
	if _, err := s.Project("P", []string{"bogus"}); err == nil {
		t.Error("Project unknown attribute did not fail")
	}
}

func TestEqualAndString(t *testing.T) {
	a := restaurantR(t)
	b := restaurantR(t)
	if !a.Equal(b) {
		t.Error("identical schemas not Equal")
	}
	c := MustNew("R", []Attribute{{Name: "name", Kind: value.KindString}})
	if a.Equal(c) {
		t.Error("different schemas Equal")
	}
	str := a.String()
	for _, want := range []string{"R(", "name:string", "key=(name,street)"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}
