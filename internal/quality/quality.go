// Package quality scores entity-identification results against ground
// truth: precision, recall, F1, soundness violations (the false
// positives §3.2's soundness property forbids) and the undetermined
// fraction (§3.3's completeness gap).
package quality

import (
	"fmt"

	"entityid/internal/match"
)

// TruthSet is the ground-truth matching: the set of (R index, S index)
// pairs that model the same real-world entity.
type TruthSet map[[2]int]bool

// Score summarises a predicted matching table against the truth.
type Score struct {
	// TruePos counts predicted pairs present in the truth.
	TruePos int
	// FalsePos counts predicted pairs absent from the truth — each one
	// is a soundness violation.
	FalsePos int
	// FalseNeg counts truth pairs the prediction missed.
	FalseNeg int
}

// Evaluate scores a matching table against the truth.
func Evaluate(mt *match.Table, truth TruthSet) Score {
	var sc Score
	seen := map[[2]int]bool{}
	for p := range mt.All() {
		k := [2]int{p.RIndex, p.SIndex}
		if seen[k] {
			continue
		}
		seen[k] = true
		if truth[k] {
			sc.TruePos++
		} else {
			sc.FalsePos++
		}
	}
	for k := range truth {
		if !seen[k] {
			sc.FalseNeg++
		}
	}
	return sc
}

// Precision returns TP/(TP+FP); 1 when nothing was predicted (vacuously
// sound).
func (s Score) Precision() float64 {
	if s.TruePos+s.FalsePos == 0 {
		return 1
	}
	return float64(s.TruePos) / float64(s.TruePos+s.FalsePos)
}

// Recall returns TP/(TP+FN); 1 when the truth is empty.
func (s Score) Recall() float64 {
	if s.TruePos+s.FalseNeg == 0 {
		return 1
	}
	return float64(s.TruePos) / float64(s.TruePos+s.FalseNeg)
}

// F1 returns the harmonic mean of precision and recall.
func (s Score) F1() float64 {
	p, r := s.Precision(), s.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Sound reports whether the prediction made no false assertions —
// the paper's minimum bar for a successful identification process.
func (s Score) Sound() bool { return s.FalsePos == 0 }

// String renders the score compactly.
func (s Score) String() string {
	return fmt.Sprintf("tp=%d fp=%d fn=%d precision=%.3f recall=%.3f f1=%.3f",
		s.TruePos, s.FalsePos, s.FalseNeg, s.Precision(), s.Recall(), s.F1())
}

// Partition summarises the three-valued classification over all pairs
// (Figure 3): the counts and the undetermined fraction, whose decrease
// under growing knowledge is the monotonicity experiment.
type Partition struct {
	Matching, NotMatching, Undetermined int
}

// Total returns the number of classified pairs.
func (p Partition) Total() int { return p.Matching + p.NotMatching + p.Undetermined }

// UndeterminedFrac returns the fraction of undetermined pairs; 0 for an
// empty partition.
func (p Partition) UndeterminedFrac() float64 {
	if p.Total() == 0 {
		return 0
	}
	return float64(p.Undetermined) / float64(p.Total())
}

// Complete reports whether the identification process is complete in
// the paper's sense (§3.2): no pair is undetermined.
func (p Partition) Complete() bool { return p.Undetermined == 0 }

// String renders the partition.
func (p Partition) String() string {
	return fmt.Sprintf("matching=%d not-matching=%d undetermined=%d (%.1f%% undetermined)",
		p.Matching, p.NotMatching, p.Undetermined, 100*p.UndeterminedFrac())
}
