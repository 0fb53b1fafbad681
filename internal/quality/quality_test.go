package quality

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"entityid/internal/match"
)

func mt(pairs ...[2]int) *match.Table {
	t := &match.Table{}
	for _, p := range pairs {
		t.Add(match.Pair{RIndex: p[0], SIndex: p[1]})
	}
	return t
}

func truth(pairs ...[2]int) TruthSet {
	ts := TruthSet{}
	for _, p := range pairs {
		ts[p] = true
	}
	return ts
}

func TestEvaluateBasic(t *testing.T) {
	sc := Evaluate(
		mt([2]int{0, 0}, [2]int{1, 1}, [2]int{2, 5}),
		truth([2]int{0, 0}, [2]int{1, 1}, [2]int{3, 3}),
	)
	if sc.TruePos != 2 || sc.FalsePos != 1 || sc.FalseNeg != 1 {
		t.Fatalf("score = %+v", sc)
	}
	if got := sc.Precision(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("precision = %g", got)
	}
	if got := sc.Recall(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("recall = %g", got)
	}
	if got := sc.F1(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("f1 = %g", got)
	}
	if sc.Sound() {
		t.Error("score with FP reported sound")
	}
	for _, want := range []string{"tp=2", "fp=1", "fn=1", "precision=0.667"} {
		if !strings.Contains(sc.String(), want) {
			t.Errorf("String missing %q: %s", want, sc)
		}
	}
}

func TestEvaluateDedupsPredictions(t *testing.T) {
	sc := Evaluate(mt([2]int{0, 0}, [2]int{0, 0}), truth([2]int{0, 0}))
	if sc.TruePos != 1 || sc.FalsePos != 0 {
		t.Errorf("duplicate prediction counted: %+v", sc)
	}
}

func TestEdgeCases(t *testing.T) {
	// Empty prediction, empty truth: vacuously perfect.
	sc := Evaluate(mt(), truth())
	if sc.Precision() != 1 || sc.Recall() != 1 {
		t.Errorf("empty-empty = %+v", sc)
	}
	if !sc.Sound() {
		t.Error("empty prediction not sound")
	}
	// Empty prediction, nonempty truth: recall 0, precision 1.
	sc = Evaluate(mt(), truth([2]int{0, 0}))
	if sc.Precision() != 1 || sc.Recall() != 0 {
		t.Errorf("empty-pred = %+v", sc)
	}
	if sc.F1() != 0 {
		t.Errorf("f1 = %g", sc.F1())
	}
}

func TestScoreInvariantsQuick(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		sc := Score{TruePos: int(tp), FalsePos: int(fp), FalseNeg: int(fn)}
		p, r := sc.Precision(), sc.Recall()
		if p < 0 || p > 1 || r < 0 || r > 1 {
			return false
		}
		f1 := sc.F1()
		return f1 >= 0 && f1 <= 1 && (sc.Sound() == (fp == 0))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartition(t *testing.T) {
	p := Partition{Matching: 3, NotMatching: 5, Undetermined: 2}
	if p.Total() != 10 {
		t.Errorf("Total = %d", p.Total())
	}
	if got := p.UndeterminedFrac(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("UndeterminedFrac = %g", got)
	}
	if p.Complete() {
		t.Error("incomplete partition reported complete")
	}
	full := Partition{Matching: 1, NotMatching: 1}
	if !full.Complete() {
		t.Error("complete partition not recognised")
	}
	empty := Partition{}
	if empty.UndeterminedFrac() != 0 {
		t.Error("empty partition fraction nonzero")
	}
	if !strings.Contains(p.String(), "20.0% undetermined") {
		t.Errorf("String = %q", p.String())
	}
}
