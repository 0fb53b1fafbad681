package ilfd

import (
	"strings"
	"testing"
)

// TestExplainI9 reproduces the paper's derived ILFD I9: from I7
// (street=FrontAve. → county=Ramsey) and I8 (name=It'sGreek ∧
// county=Ramsey → speciality=Gyros), derive I9 (name=It'sGreek ∧
// street=FrontAve. → speciality=Gyros) with an inspectable proof.
func TestExplainI9(t *testing.T) {
	fs := Set{
		MustParse("speciality=Hunan -> cuisine=Chinese"),                // noise
		MustParse("street=FrontAve. -> county=Ramsey"),                  // I7
		MustParse("name=It'sGreek & county=Ramsey -> speciality=Gyros"), // I8
		MustParse("speciality=Mughalai -> cuisine=Indian"),              // noise
	}
	i9 := MustParse("name=It'sGreek & street=FrontAve. -> speciality=Gyros")
	proof, ok := Explain(fs, i9)
	if !ok {
		t.Fatal("I9 not derivable")
	}
	if len(proof.Steps) != 2 {
		t.Fatalf("proof steps = %d, want 2 (I7 then I8):\n%s", len(proof.Steps), proof)
	}
	if !proof.Steps[0].ILFD.Equal(fs[1]) {
		t.Errorf("step 1 = %v, want I7", proof.Steps[0].ILFD)
	}
	if !proof.Steps[1].ILFD.Equal(fs[2]) {
		t.Errorf("step 2 = %v, want I8", proof.Steps[1].ILFD)
	}
	// Contributions recorded.
	if !proof.Steps[0].Added.Contains(C("county", "Ramsey")) {
		t.Errorf("step 1 added = %v", proof.Steps[0].Added)
	}
	if !proof.Steps[1].Added.Contains(C("speciality", "Gyros")) {
		t.Errorf("step 2 added = %v", proof.Steps[1].Added)
	}
	// Noise rules must not appear.
	for _, s := range proof.Steps {
		for _, c := range s.ILFD.Consequent {
			if c.Attr == "cuisine" {
				t.Errorf("irrelevant rule in proof: %v", s.ILFD)
			}
		}
	}
	out := proof.String()
	for _, want := range []string{"goal:", "1. apply", "2. apply", "Gyros"} {
		if !strings.Contains(out, want) {
			t.Errorf("proof rendering missing %q:\n%s", want, out)
		}
	}
}

func TestExplainTrivial(t *testing.T) {
	proof, ok := Explain(nil, MustParse("a=1 -> a=1"))
	if !ok {
		t.Fatal("trivial inference rejected")
	}
	if len(proof.Steps) != 0 {
		t.Errorf("trivial proof has %d steps", len(proof.Steps))
	}
	if !strings.Contains(proof.String(), "reflexivity") {
		t.Errorf("trivial rendering = %q", proof.String())
	}
}

func TestExplainFailure(t *testing.T) {
	fs := Set{MustParse("a=1 -> b=2")}
	if _, ok := Explain(fs, MustParse("b=2 -> a=1")); ok {
		t.Error("converse explained")
	}
	if _, ok := Explain(fs, MustParse("a=1 -> c=3")); ok {
		t.Error("unreachable consequent explained")
	}
}

// TestExplainAgreesWithInfers is the coherence property: Explain
// succeeds exactly when Infers says the inference holds, across a
// deterministic family of goals.
func TestExplainAgreesWithInfers(t *testing.T) {
	fs := Set{
		MustParse("a=1 -> b=2"),
		MustParse("b=2 -> c=3"),
		MustParse("c=3 & d=4 -> e=5"),
		MustParse("x=9 -> y=8"),
	}
	goals := []ILFD{
		MustParse("a=1 -> c=3"),
		MustParse("a=1 -> e=5"),
		MustParse("a=1 & d=4 -> e=5"),
		MustParse("x=9 -> y=8"),
		MustParse("x=9 -> c=3"),
		MustParse("a=1 & x=9 -> y=8"),
	}
	for _, g := range goals {
		proof, ok := Explain(fs, g)
		if ok != Infers(fs, g) {
			t.Errorf("Explain(%v) = %t, Infers = %t", g, ok, Infers(fs, g))
			continue
		}
		if !ok {
			continue
		}
		// Replaying the proof steps from the antecedent must reach the
		// consequent: the proof is self-contained.
		have := append(Conditions(nil), g.Antecedent...)
		for _, s := range proof.Steps {
			for _, c := range s.ILFD.Antecedent {
				if !have.Contains(c) {
					t.Errorf("proof for %v applies %v before its premise %v is available",
						g, s.ILFD, c)
				}
			}
			have = append(have, s.ILFD.Consequent...)
		}
		for _, c := range g.Consequent {
			if !have.Contains(c) {
				t.Errorf("proof for %v never derives %v", g, c)
			}
		}
	}
}
