package ilfd

import "fmt"

// This file implements Armstrong's axioms for ILFDs (§5.2) and the
// derived inference rules of Lemma 2. Each axiom is a total function that
// constructs the inferred ILFD; soundness (Lemma 1) and — via the closure
// algorithm — completeness (Theorem 1) are exercised by the package
// tests.

// Reflexivity returns the trivial ILFD X → Y for Y ⊆ X. It fails if Y is
// not a subset of X (the axiom only licenses subsets).
func Reflexivity(x, y Conditions) (ILFD, error) {
	if !x.ContainsAll(y) {
		return ILFD{}, fmt.Errorf("ilfd: reflexivity: %v is not a subset of %v", y, x)
	}
	return New(x, y)
}

// Augmentation turns X → Y into (X ∧ Z) → (Y ∧ Z).
func Augmentation(f ILFD, z Conditions) ILFD {
	return MustNew(f.Antecedent.Union(z), f.Consequent.Union(z))
}

// Transitivity combines X → Y and Y → Z into X → Z. It fails unless the
// first consequent equals the second antecedent as a set.
func Transitivity(xy, yz ILFD) (ILFD, error) {
	if !xy.Consequent.Equal(yz.Antecedent) {
		return ILFD{}, fmt.Errorf("ilfd: transitivity: consequent %v ≠ antecedent %v",
			xy.Consequent, yz.Antecedent)
	}
	return New(xy.Antecedent, yz.Consequent)
}

// UnionRule combines X → Y and X → Z into X → (Y ∧ Z) (Lemma 2.1). It
// fails unless the antecedents agree.
func UnionRule(xy, xz ILFD) (ILFD, error) {
	if !xy.Antecedent.Equal(xz.Antecedent) {
		return ILFD{}, fmt.Errorf("ilfd: union rule: antecedents differ: %v vs %v",
			xy.Antecedent, xz.Antecedent)
	}
	return New(xy.Antecedent, xy.Consequent.Union(xz.Consequent))
}

// PseudoTransitivity combines X → Y and (W ∧ Y) → Z into (W ∧ X) → Z
// (Lemma 2.2). The caller supplies W; the second ILFD's antecedent must
// equal W ∪ Y.
func PseudoTransitivity(xy ILFD, w Conditions, wyz ILFD) (ILFD, error) {
	if !wyz.Antecedent.Equal(w.Union(xy.Consequent)) {
		return ILFD{}, fmt.Errorf("ilfd: pseudotransitivity: antecedent %v ≠ W∪Y %v",
			wyz.Antecedent, w.Union(xy.Consequent))
	}
	return New(w.Union(xy.Antecedent), wyz.Consequent)
}

// Decomposition turns X → (Y ∧ Z) into X → Z for any subset Z of the
// consequent (Lemma 2.3).
func Decomposition(f ILFD, z Conditions) (ILFD, error) {
	if !f.Consequent.ContainsAll(z) {
		return ILFD{}, fmt.Errorf("ilfd: decomposition: %v not contained in consequent %v",
			z, f.Consequent)
	}
	return New(f.Antecedent, z)
}

// Closure computes X⁺_F: the set of proposition symbols derivable from X
// using the ILFDs in F under Armstrong's axioms. The algorithm is the
// standard attribute-closure fixpoint transliterated to proposition
// symbols (§5.2: "the algorithm for computing X⁺_F is the same as that
// for computing the closure of a set of attributes with respect to a set
// of FDs"). It runs in O(|F| · |symbols|) per pass and at most
// |symbols| passes.
func Closure(x Conditions, fs Set) Conditions {
	closure := append(Conditions(nil), x...).Normalize()
	inClosure := map[Condition]bool{}
	for _, c := range closure {
		inClosure[c.canon()] = true
	}
	used := make([]bool, len(fs))
	for changed := true; changed; {
		changed = false
		for i, f := range fs {
			if used[i] {
				continue
			}
			applicable := true
			for _, c := range f.Antecedent {
				if !inClosure[c.canon()] {
					applicable = false
					break
				}
			}
			if !applicable {
				continue
			}
			used[i] = true
			for _, c := range f.Consequent {
				if !inClosure[c.canon()] {
					inClosure[c.canon()] = true
					closure = append(closure, c)
					changed = true
				}
			}
		}
	}
	return closure.Normalize()
}

// Infers reports whether F ⊨ f, i.e. f's consequent is contained in the
// closure of f's antecedent under F. By Theorem 1 (soundness and
// completeness of the axioms) this decides logical implication.
func Infers(fs Set, f ILFD) bool {
	return Closure(f.Antecedent, fs).ContainsAll(f.Consequent)
}

// Redundant reports whether the i-th ILFD of fs is implied by the others.
func Redundant(fs Set, i int) bool {
	rest := make(Set, 0, len(fs)-1)
	rest = append(rest, fs[:i]...)
	rest = append(rest, fs[i+1:]...)
	return Infers(rest, fs[i])
}

// MinimalCover returns a subset of fs (split into single-consequent form)
// that implies every ILFD of fs and contains no redundant member, the
// ILFD analogue of an FD minimal cover. Antecedent reduction is also
// applied: a symbol is dropped from an antecedent when the remaining
// symbols still derive the consequent.
func MinimalCover(fs Set) Set {
	// Split into single-consequent ILFDs.
	var split Set
	for _, f := range fs {
		for _, c := range f.Consequent {
			split = append(split, MustNew(f.Antecedent, Conditions{c}))
		}
	}
	split = split.Dedup()

	// Drop trivial members (already implied by reflexivity).
	nontrivial := split[:0]
	for _, f := range split {
		if !f.Trivial() {
			nontrivial = append(nontrivial, f)
		}
	}
	split = nontrivial

	// Reduce antecedents.
	for i := range split {
		f := split[i]
		ante := append(Conditions(nil), f.Antecedent...)
		for j := 0; j < len(ante); {
			reduced := make(Conditions, 0, len(ante)-1)
			reduced = append(reduced, ante[:j]...)
			reduced = append(reduced, ante[j+1:]...)
			candidate := MustNew(reduced, f.Consequent)
			if Infers(split, candidate) {
				ante = reduced
			} else {
				j++
			}
		}
		split[i] = MustNew(ante, f.Consequent)
	}
	split = split.Dedup()

	// Drop redundant members. Iterate until stable, since removing one
	// can make another essential.
	for i := 0; i < len(split); {
		if Redundant(split, i) {
			split = append(split[:i], split[i+1:]...)
		} else {
			i++
		}
	}
	return split
}

// EnumerateClosure materialises the closure F⁺ restricted to a finite
// symbol universe: every non-trivial-to-state ILFD X → Y with X, Y
// non-empty subsets of the universe and F ⊨ X → Y. The paper notes F⁺
// is expensive — it is exponential in the universe — so the function
// refuses universes larger than maxUniverse symbols. The §5.2 example
// (F = {P→Q, Q→R} over three symbols) enumerates in microseconds.
//
// Trivial members (reflexivity instances) are included, as in the
// paper's listing of F⁺.
func EnumerateClosure(fs Set, universe Conditions) (Set, error) {
	const maxUniverse = 12
	u := append(Conditions(nil), universe...).Normalize()
	if len(u) > maxUniverse {
		return nil, fmt.Errorf("ilfd: universe of %d symbols too large for F+ enumeration (max %d)",
			len(u), maxUniverse)
	}
	n := len(u)
	subset := func(mask int) Conditions {
		var cs Conditions
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				cs = append(cs, u[i])
			}
		}
		return cs
	}
	var out Set
	for xm := 1; xm < 1<<n; xm++ {
		x := subset(xm)
		clo := Closure(x, fs)
		inClo := map[Condition]bool{}
		for _, c := range clo {
			inClo[c.canon()] = true
		}
		// Enumerate consequent subsets drawn from the derivable symbols
		// of the universe.
		var derivable []int
		for i := 0; i < n; i++ {
			if inClo[u[i].canon()] {
				derivable = append(derivable, i)
			}
		}
		for ym := 1; ym < 1<<len(derivable); ym++ {
			var y Conditions
			for bi, i := range derivable {
				if ym&(1<<bi) != 0 {
					y = append(y, u[i])
				}
			}
			out = append(out, MustNew(x, y))
		}
	}
	return out, nil
}

// Equivalent reports whether two ILFD sets imply each other.
func Equivalent(a, b Set) bool {
	for _, f := range a {
		if !Infers(b, f) {
			return false
		}
	}
	for _, f := range b {
		if !Infers(a, f) {
			return false
		}
	}
	return true
}
