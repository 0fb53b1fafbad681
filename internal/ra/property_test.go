package ra

import (
	"math/rand"
	"testing"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// randRel builds a random keyless relation over two string attributes
// with values from a small alphabet (so joins actually hit).
func randRel(rng *rand.Rand, name string, attrs []string, rows int) *relation.Relation {
	as := make([]schema.Attribute, len(attrs))
	for i, a := range attrs {
		as[i] = schema.Attribute{Name: a, Kind: value.KindString}
	}
	// Bag semantics: random rows may repeat.
	r := relation.NewBag(schema.MustNew(name, as))
	alphabet := []string{"a", "b", "c", "null-ish", ""}
	for i := 0; i < rows; i++ {
		t := make(relation.Tuple, len(attrs))
		for j := range attrs {
			s := alphabet[rng.Intn(len(alphabet))]
			if s == "" {
				t[j] = value.Null
			} else {
				t[j] = value.String(s)
			}
		}
		if err := r.Insert(t); err != nil {
			panic(err)
		}
	}
	return r
}

// TestJoinPairSymmetry: the inner equi-join of (A ⋈ B) and (B ⋈ A)
// produce the same number of result tuples (join is commutative up to
// column order).
func TestJoinPairSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		a := randRel(rng, "A", []string{"k", "v"}, rng.Intn(12))
		b := randRel(rng, "B", []string{"k", "w"}, rng.Intn(12))
		ab, err := Join(a, b, "AB", Inner, []On{{Left: "k", Right: "k"}})
		if err != nil {
			t.Fatal(err)
		}
		ba, err := Join(b, a, "BA", Inner, []On{{Left: "k", Right: "k"}})
		if err != nil {
			t.Fatal(err)
		}
		if ab.Len() != ba.Len() {
			t.Fatalf("trial %d: |A⋈B| = %d, |B⋈A| = %d", trial, ab.Len(), ba.Len())
		}
	}
}

// TestOuterJoinCounts: |A ⟗ B| = |A ⋈ B| + unmatched(A) + unmatched(B),
// and left/right outer joins sit between inner and full.
func TestOuterJoinCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	on := []On{{Left: "k", Right: "k"}}
	for trial := 0; trial < 50; trial++ {
		a := randRel(rng, "A", []string{"k", "v"}, 1+rng.Intn(12))
		b := randRel(rng, "B", []string{"k", "w"}, 1+rng.Intn(12))
		inner, err := Join(a, b, "I", Inner, on)
		if err != nil {
			t.Fatal(err)
		}
		left, err := Join(a, b, "L", LeftOuter, on)
		if err != nil {
			t.Fatal(err)
		}
		right, err := Join(a, b, "R", RightOuter, on)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Join(a, b, "F", FullOuter, on)
		if err != nil {
			t.Fatal(err)
		}
		matchedA := countMatched(a, b, true)
		matchedB := countMatched(a, b, false)
		wantLeft := inner.Len() + (a.Len() - matchedA)
		wantRight := inner.Len() + (b.Len() - matchedB)
		wantFull := inner.Len() + (a.Len() - matchedA) + (b.Len() - matchedB)
		if left.Len() != wantLeft {
			t.Fatalf("trial %d: left = %d, want %d", trial, left.Len(), wantLeft)
		}
		if right.Len() != wantRight {
			t.Fatalf("trial %d: right = %d, want %d", trial, right.Len(), wantRight)
		}
		if full.Len() != wantFull {
			t.Fatalf("trial %d: full = %d, want %d", trial, full.Len(), wantFull)
		}
		if inner.Len() > left.Len() || left.Len() > full.Len() {
			t.Fatalf("trial %d: size ordering violated", trial)
		}
	}
}

// countMatched counts tuples of one side that join at least one tuple
// of the other on attribute k (NULL never matches).
func countMatched(a, b *relation.Relation, leftSide bool) int {
	keys := map[string]bool{}
	src, other := b, a
	if leftSide {
		src, other = a, b
	}
	for _, t := range other.Tuples() {
		v := t[other.Schema().Index("k")]
		if !v.IsNull() {
			keys[v.Key()] = true
		}
	}
	n := 0
	for _, t := range src.Tuples() {
		v := t[src.Schema().Index("k")]
		if !v.IsNull() && keys[v.Key()] {
			n++
		}
	}
	return n
}
