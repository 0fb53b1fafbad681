// Package forbid refuses the shapes this design retired, one entry of
// Rules (rules.go) each. A rule reads types, not text: a map key with
// aliases resolved, a call by the function it invokes, an import
// through the package graph, a literal by its value.
package forbid

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"entityid/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "forbid",
	Doc:  "non-test code must not hold a shape a rule of forbid.Rules retires from its scope",
	Run:  run,
}

// Rule is one refusal.
type Rule struct {
	Scope  Scope
	Shape  Shape
	Reason string
	PR     int // the CHANGES.md entry, "PR N", that retired the shape
}

// Scope is where a rule holds: the non-test files of some packages.
type Scope struct {
	Pkgs   []string // import paths; "p/..." is p and every package below it
	Except []string // import paths, same syntax, carved out of Pkgs
	Files  []string // file basenames; empty is every file
}

// Shape is what a rule refuses: one field set, or two where one
// refusal has two spellings.
type Shape struct {
	Import string   // a file imports this path
	Links  string   // a file's import reaches this path, directly or transitively
	Types  []string // a map or slice type as spell writes it; a trailing * matches any rest
	Calls  []string // a call to a function, by types.Func.FullName
	Funcs  []string // a declared function or method name
	Holds  []string // a string or rune literal whose source or value holds one of these
}

func run(pass *analysis.Pass) (any, error) {
	for _, r := range Rules {
		if !within(r.Scope.Pkgs, pass.Pkg.Path()) || within(r.Scope.Except, pass.Pkg.Path()) {
			continue
		}
		for _, f := range pass.Files {
			name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
			if !strings.HasSuffix(name, "_test.go") && (r.Scope.Files == nil || slices.Contains(r.Scope.Files, name)) {
				check(pass, r, f)
			}
		}
	}
	return nil, nil
}

func within(patterns []string, path string) bool {
	return slices.ContainsFunc(patterns, func(p string) bool {
		root, tree := strings.CutSuffix(p, "/...")
		return path == root || tree && strings.HasPrefix(path, root+"/")
	})
}

// check reports every shape of r in one file.
func check(pass *analysis.Pass, r Rule, f *ast.File) {
	report := func(pos token.Pos, what string) { pass.Reportf(pos, "%s: %s (PR %d)", what, r.Reason, r.PR) }
	for _, spec := range f.Imports {
		if path, _ := strconv.Unquote(spec.Path.Value); path == r.Shape.Import {
			report(spec.Pos(), "import "+spec.Path.Value)
		}
		if pkg := pass.TypesInfo.PkgNameOf(spec); r.Shape.Links != "" && pkg != nil {
			if via := chain(pkg.Imported(), r.Shape.Links, map[*types.Package]bool{}); via != nil {
				report(spec.Pos(), "links "+strings.Join(via, " → "))
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.MapType, *ast.ArrayType:
			s := spell(pass.TypesInfo.TypeOf(n.(ast.Expr)))
			if slices.ContainsFunc(r.Shape.Types, func(p string) bool {
				prefix, rest := strings.CutSuffix(p, "*")
				return s == p || rest && strings.HasPrefix(s, prefix)
			}) {
				report(n.Pos(), s)
			}
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(pass.TypesInfo, n); fn != nil && slices.Contains(r.Shape.Calls, fn.FullName()) {
				report(n.Pos(), "call to "+fn.FullName())
			}
		case *ast.FuncDecl:
			if slices.Contains(r.Shape.Funcs, n.Name.Name) {
				report(n.Name.Pos(), "func "+n.Name.Name)
			}
		case *ast.BasicLit:
			v, _ := strconv.Unquote(n.Value) // "" for a number
			for _, h := range r.Shape.Holds {
				if strings.Contains(n.Value, h) || strings.Contains(v, h) {
					report(n.Pos(), "literal "+n.Value+" holds "+strconv.Quote(h))
					break
				}
			}
		}
		return true
	})
}

// chain returns the import path from p to target, p first, or nil if
// p's imports never reach target.
func chain(p *types.Package, target string, seen map[*types.Package]bool) []string {
	if p.Path() == target {
		return []string{target}
	}
	for _, q := range p.Imports() {
		if !seen[q] {
			seen[q] = true
			if c := chain(q, target, seen); c != nil {
				return append([]string{p.Path()}, c...)
			}
		}
	}
	return nil
}

// spell writes t with aliases resolved and named types qualified by
// their package path: map[entityid/internal/match.Pair]bool.
func spell(t types.Type) string {
	switch t := types.Unalias(t).(type) {
	case *types.Map:
		return "map[" + spell(t.Key()) + "]" + spell(t.Elem())
	case *types.Slice:
		return "[]" + spell(t.Elem())
	}
	return types.TypeString(types.Unalias(t), (*types.Package).Path)
}
