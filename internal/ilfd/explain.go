package ilfd

import (
	"fmt"
	"strings"
)

// Step is one application of an ILFD during a closure computation: the
// rule fired and the symbols it newly contributed.
type Step struct {
	ILFD  ILFD
	Added Conditions
}

// Proof is a derivation trace: the sequence of ILFD applications that
// takes the antecedent symbols to (a superset of) the consequent
// symbols. An empty Steps list means the inference is trivial
// (reflexivity).
type Proof struct {
	Goal  ILFD
	Steps []Step
}

// String renders the proof in the style of the §5.2 examples.
func (p Proof) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "goal: %v\n", p.Goal)
	if len(p.Steps) == 0 {
		b.WriteString("  trivial (reflexivity)\n")
		return b.String()
	}
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "  %d. apply %v  ⇒  %v\n", i+1, s.ILFD, s.Added)
	}
	return b.String()
}

// Explain decides F ⊨ f like Infers, and on success returns a minimal-
// length forward-chaining proof: only the rule applications actually
// needed to reach f's consequent, in firing order. ok is false when f
// does not follow from fs.
func Explain(fs Set, f ILFD) (Proof, bool) {
	proof := Proof{Goal: f}
	// Forward-chain, recording which rule produced each symbol.
	type origin struct {
		ruleIdx int
		// premises are the antecedent symbols the rule consumed.
		premises Conditions
	}
	inClosure := map[Condition]bool{}
	producedBy := map[Condition]origin{}
	for _, c := range f.Antecedent {
		inClosure[c.canon()] = true
	}
	fired := make([]bool, len(fs))
	for changed := true; changed; {
		changed = false
		for i, g := range fs {
			if fired[i] {
				continue
			}
			ok := true
			for _, c := range g.Antecedent {
				if !inClosure[c.canon()] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			fired[i] = true
			for _, c := range g.Consequent {
				if !inClosure[c.canon()] {
					inClosure[c.canon()] = true
					producedBy[c.canon()] = origin{ruleIdx: i, premises: g.Antecedent}
					changed = true
				}
			}
		}
	}
	for _, c := range f.Consequent {
		if !inClosure[c.canon()] {
			return Proof{}, false
		}
	}
	// Walk back from the goal symbols to collect only the needed rules,
	// then emit them in firing (index-discovery) order.
	needed := map[int]bool{}
	var visit func(c Condition)
	seen := map[Condition]bool{}
	visit = func(c Condition) {
		k := c.canon()
		if seen[k] {
			return
		}
		seen[k] = true
		o, derived := producedBy[k]
		if !derived {
			return // an antecedent symbol of the goal
		}
		needed[o.ruleIdx] = true
		for _, p := range o.premises {
			visit(p)
		}
	}
	for _, c := range f.Consequent {
		visit(c)
	}
	// Re-run the chaining restricted to needed rules to get firing order
	// and per-step contributions.
	inClosure = map[Condition]bool{}
	for _, c := range f.Antecedent {
		inClosure[c.canon()] = true
	}
	firedOnce := map[int]bool{}
	for changed := true; changed; {
		changed = false
		for i, g := range fs {
			if !needed[i] || firedOnce[i] {
				continue
			}
			ok := true
			for _, c := range g.Antecedent {
				if !inClosure[c.canon()] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			firedOnce[i] = true
			var added Conditions
			for _, c := range g.Consequent {
				if !inClosure[c.canon()] {
					inClosure[c.canon()] = true
					added = append(added, c)
				}
			}
			proof.Steps = append(proof.Steps, Step{ILFD: g, Added: added.Normalize()})
			changed = true
		}
	}
	return proof, true
}
