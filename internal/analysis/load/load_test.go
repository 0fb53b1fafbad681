package load

import (
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// module writes a module m to a temporary directory: p with an
// in-package test file and an external test; q, which imports p and
// which p_test imports, so p's test binary builds a dep-only variant
// "m/q [m/p.test]"; and r, which p imports only from unexported code.
func module(t *testing.T) string {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":               "module m\n\ngo 1.24\n",
		"p/p.go":               "package p\n\nimport \"m/r\"\n\nfunc V() int { return 1 }\n\nfunc touch() { r.Touch() }\n",
		"p/p_internal_test.go": "package p\n\nfunc OnlyInTests() int { return V() + 1 }\n",
		"p/p_test.go":          "package p_test\n\nimport (\n\t\"m/p\"\n\t\"m/q\"\n)\n\nvar _ = p.OnlyInTests() + q.W()\n",
		"q/q.go":               "package q\n\nimport \"m/p\"\n\nfunc W() int { return p.V() }\n",
		"r/r.go":               "package r\n\nfunc Touch() {}\n",
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestModuleChecksEveryVariantFromSource(t *testing.T) {
	pkgs, err := Module(module(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*Package{}
	var paths []string
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
		paths = append(paths, p.PkgPath)
		for _, e := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.PkgPath, e)
		}
	}
	// The bare p is superseded by its in-package test variant, and the
	// dep-only "m/q [m/p.test]" is checked but not analyzed.
	if want := []string{"m/p [m/p.test]", "m/p_test [m/p.test]", "m/q", "m/r"}; !slices.Equal(paths, want) {
		t.Fatalf("analyzed %q, want %q", paths, want)
	}
	ptest, xtest, q := byPath["m/p [m/p.test]"], byPath["m/p_test [m/p.test]"], byPath["m/q"]
	if ptest.Types.Path() != "m/p" {
		t.Errorf("the test variant type-checks as %q, want m/p", ptest.Types.Path())
	}

	// p_test reads OnlyInTests, which only p's _test.go declares, from the
	// variant that was analyzed: the one *types.Package, not a copy.
	imported := map[string]*types.Package{}
	for _, imp := range xtest.Types.Imports() {
		imported[imp.Path()] = imp
	}
	if imported["m/p"] != ptest.Types || imported["m/p"].Scope().Lookup("OnlyInTests") == nil {
		t.Errorf("p_test does not import the analyzed test variant of p")
	}
	// p_test's q is the dep-only variant: it imports the test variant
	// of p, where the analyzed q imports the bare p.
	if vq := imported["m/q"]; vq == nil || vq == q.Types || !slices.Contains(vq.Imports(), ptest.Types) {
		t.Errorf("p_test's q is not the variant built against p's test files")
	}
	if slices.Contains(q.Types.Imports(), ptest.Types) {
		t.Errorf("the analyzed q imports p's test variant")
	}

	// A transitive walk of Imports from q reaches r, which p imports
	// only from unexported code (what forbid's Links rules walk).
	if !reaches(q.Types, "m/r", map[*types.Package]bool{}) {
		t.Errorf("no path of Imports from q reaches m/r")
	}
}

func reaches(p *types.Package, target string, seen map[*types.Package]bool) bool {
	if p.Path() == target {
		return true
	}
	seen[p] = true
	for _, q := range p.Imports() {
		if !seen[q] && reaches(q, target, seen) {
			return true
		}
	}
	return false
}
