package relation

import (
	"testing"

	"entityid/internal/schema"
	"entityid/internal/value"
)

func TestNewBagAllowsDuplicates(t *testing.T) {
	sch := schema.MustNew("B", []schema.Attribute{
		{Name: "x", Kind: value.KindString},
	}, []string{"x"})
	b := NewBag(sch)
	b.MustInsert(value.String("dup"))
	if err := b.Insert(Tuple{value.String("dup")}); err != nil {
		t.Fatalf("bag rejected duplicate: %v", err)
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d", b.Len())
	}
	// Still kind-checked.
	if err := b.Insert(Tuple{value.Int(1)}); err == nil {
		t.Error("bag accepted wrong kind")
	}
	// LookupKey resolves to the last insertion.
	if got := b.LookupKey(value.String("dup")); got != 1 {
		t.Errorf("LookupKey = %d, want 1 (last inserted)", got)
	}
}

// TestAdmitDoesNotMutate: Admit is Insert's check without the insert —
// arity, value kinds and candidate keys — and a bag admits a duplicate.
func TestAdmitDoesNotMutate(t *testing.T) {
	sch := schema.MustNew("R", []schema.Attribute{
		{Name: "a", Kind: value.KindString},
		{Name: "b", Kind: value.KindInt},
	}, []string{"a"})
	r := New(sch)
	r.MustInsert(value.String("x"), value.Int(1))

	if _, err := r.Admit(Tuple{value.String("y"), value.Int(2)}); err != nil {
		t.Errorf("Admit(valid) = %v", err)
	}
	if _, err := r.Admit(Tuple{value.String("x"), value.Int(3)}); err == nil {
		t.Error("Admit accepted key violation")
	}
	if _, err := r.Admit(Tuple{value.String("y")}); err == nil {
		t.Error("Admit accepted wrong arity")
	}
	if _, err := r.Admit(Tuple{value.Int(1), value.Int(2)}); err == nil {
		t.Error("Admit accepted wrong kind")
	}
	// Admit must not mutate: the valid probe tuple is still insertable
	// afterwards, and Len is unchanged.
	if r.Len() != 1 {
		t.Errorf("Admit mutated: Len = %d", r.Len())
	}
	if err := r.Insert(Tuple{value.String("y"), value.Int(2)}); err != nil {
		t.Errorf("post-probe insert failed: %v", err)
	}
	// Bags admit duplicates too.
	bag := NewBag(sch)
	bag.MustInsert(value.String("x"), value.Int(1))
	if _, err := bag.Admit(Tuple{value.String("x"), value.Int(1)}); err != nil {
		t.Errorf("bag Admit(duplicate) = %v", err)
	}
}

func TestBagCloneStaysBag(t *testing.T) {
	sch := schema.MustNew("B", []schema.Attribute{
		{Name: "x", Kind: value.KindString},
	}, []string{"x"})
	b := NewBag(sch)
	b.MustInsert(value.String("dup"))
	c := b.Clone()
	if err := c.Insert(Tuple{value.String("dup")}); err != nil {
		t.Errorf("cloned bag rejected duplicate: %v", err)
	}
	// And a cloned set relation stays a set.
	s := New(sch)
	s.MustInsert(value.String("dup"))
	s2 := s.Clone()
	if err := s2.Insert(Tuple{value.String("dup")}); err == nil {
		t.Error("cloned set accepted duplicate")
	}
}
