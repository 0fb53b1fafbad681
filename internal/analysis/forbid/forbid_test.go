package forbid_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"entityid/internal/analysis/analysistest"
	"entityid/internal/analysis/forbid"
	"entityid/internal/analysis/load"
)

// fixtures sit under testdata/src at the real package paths, so the
// production table is what they exercise.
var fixtures = []string{
	"entityid/cmd/entityidd",
	"entityid/examples/report",
	"entityid/internal/experiments",
	"entityid/internal/hub",
	"entityid/internal/match",
	"entityid/internal/obs",
	"entityid/internal/relation",
	"entityid/internal/resolve",
	"entityid/internal/store",
	"entityid/internal/store/mem",
}

func TestForbid(t *testing.T) {
	analysistest.Run(t, "../testdata", forbid.Analyzer, fixtures...)
}

// TestEveryRuleFires holds each rule to a fixture that fires it, and to
// a reason and the PR that paid for it.
func TestEveryRuleFires(t *testing.T) {
	var msgs []string
	for _, path := range fixtures {
		p, err := load.Fixture("../testdata/src", path)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range analysistest.RunPass(t, forbid.Analyzer, p) {
			msgs = append(msgs, d.Message)
		}
	}
	for i, r := range forbid.Rules {
		if r.Reason == "" || r.PR == 0 || len(r.Scope.Pkgs) == 0 {
			t.Errorf("rule %d lacks a scope, a reason or a PR", i)
		}
		tail := fmt.Sprintf(": %s (PR %d)", r.Reason, r.PR)
		if !slices.ContainsFunc(msgs, func(m string) bool { return strings.HasSuffix(m, tail) }) {
			t.Errorf("rule %d (%s) fires on no fixture", i, r.Reason)
		}
	}
}
