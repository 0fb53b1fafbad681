package forbid_test

import (
	"os"
	"slices"
	"strings"
	"testing"

	"entityid/internal/analysis/forbid"
)

// TestDocsNameNoRetiredPackage holds README.md and the verify skill,
// the two guides a reader follows into the code, to the rules that
// retire a package from the whole module by its import: neither may
// name a package that is gone.
func TestDocsNameNoRetiredPackage(t *testing.T) {
	var retired []forbid.Rule
	for _, r := range forbid.Rules {
		if r.Shape.Import != "" && slices.Contains(r.Scope.Pkgs, "entityid/...") {
			retired = append(retired, r)
		}
	}
	if len(retired) == 0 {
		t.Fatal("no rule retires a package by its import")
	}
	for _, doc := range []string{"../../../README.md", "../../../.claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, r := range retired {
				if name := strings.TrimPrefix(r.Shape.Import, "entityid/"); strings.Contains(line, name) {
					t.Errorf("%s:%d names %s: %s (PR %d)", doc, i+1, name, r.Reason, r.PR)
				}
			}
		}
	}
}
