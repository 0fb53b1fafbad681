// Package analysis is the hub's static-analysis framework: a minimal,
// dependency-free mirror of the golang.org/x/tools/go/analysis API
// shape, carrying exactly what the entitylint analyzers need — parsed
// syntax, full type information and a diagnostic sink. The repo bakes
// in no third-party modules, so the framework, the package loader
// (load) and the fixture runner (analysistest) are built on go/ast,
// go/types and the go command alone; an analyzer written against this
// package is a one-line port away from the upstream API if x/tools
// ever becomes available.
//
// forbid reads its rules from a Go table (forbid/rules.go); lockorder,
// walfirst and hotpath read //entitylint: directives (see Directive);
// cmd/entitylint's TestRepoClean runs all four over the module. The
// grammar, one directive per comment line:
//
//	//entitylint:lock rank=N            on a mutex field: declares its
//	                                    place in the global acquisition
//	                                    order (lockorder)
//	//entitylint:commitpath             on a function: it mutates
//	                                    published hub state and must
//	                                    log write-ahead first (walfirst)
//	//entitylint:walappend              on a function: calling it is a
//	                                    write-ahead append (walfirst)
//	//entitylint:publishes              on a function: calling it
//	                                    mutates published state
//	                                    (walfirst)
//	//entitylint:published              on a struct field: assigning it
//	                                    mutates published state
//	                                    (walfirst)
//	//entitylint:hotpath [flags]        on a function: it serves the
//	                                    hot read path; flags is a
//	                                    comma-separated subset of
//	                                    noalloc,nolock,noobs,noio
//	                                    (empty means all) (hotpath)
//	//entitylint:ignore <analyzer> <reason>
//	                                    on or above a line: suppress
//	                                    that analyzer's findings there
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"entityid/internal/analysis/load"
)

// Analyzer is one static check, in the x/tools go/analysis shape.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -disable lists.
	Name string
	// Doc is the one-paragraph description shown by entitylint -list.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver wires suppression
	// (//entitylint:ignore) and output formatting behind it.
	Report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnose applies a to one loaded package and returns its diagnostics
// that no //entitylint:ignore suppresses, sorted by position. The
// driver and the fixture runner both call it.
func Diagnose(a *Analyzer, p *load.Package) ([]Diagnostic, error) {
	sup := NewSuppressor(p.Fset, p.Files)
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      p.Fset,
		Files:     p.Files,
		Pkg:       p.Types,
		TypesInfo: p.Info,
		Report: func(d Diagnostic) {
			if !sup.Suppressed(a.Name, d.Pos) {
				diags = append(diags, d)
			}
		},
	}
	if _, err := a.Run(pass); err != nil {
		return nil, err
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// directivePrefix marks an entitylint directive comment.
const directivePrefix = "//entitylint:"

// Directive is one parsed //entitylint:<verb> [args] comment.
type Directive struct {
	Pos  token.Pos
	Verb string
	Args string
}

// parseDirective parses one comment line; ok is false for ordinary
// comments.
func parseDirective(c *ast.Comment) (Directive, bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	verb, args, _ := strings.Cut(rest, " ")
	verb = strings.TrimSpace(verb)
	if verb == "" {
		return Directive{}, false
	}
	return Directive{Pos: c.Pos(), Verb: verb, Args: strings.TrimSpace(args)}, true
}

// FindDirective returns the first directive with the given verb among
// the comment groups (a declaration's Doc and trailing Comment, say).
func FindDirective(verb string, groups ...*ast.CommentGroup) (Directive, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if d, ok := parseDirective(c); ok && d.Verb == verb {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// Suppressor answers "is this diagnostic suppressed?" for one package:
// an //entitylint:ignore <analyzer> <reason> comment on the reported
// line or the line above it silences the finding. The reason is
// mandatory — a bare ignore suppresses nothing, so every suppression
// carries its justification in the source.
type Suppressor struct {
	fset  *token.FileSet
	lines map[string]map[int][]Directive
}

// NewSuppressor indexes the directives of a package by file and by the
// source line each comment starts on.
func NewSuppressor(fset *token.FileSet, files []*ast.File) *Suppressor {
	s := &Suppressor{fset: fset, lines: map[string]map[int][]Directive{}}
	for _, f := range files {
		lines := map[int][]Directive{}
		for _, g := range f.Comments {
			for _, c := range g.List {
				if d, ok := parseDirective(c); ok {
					line := fset.Position(c.Pos()).Line
					lines[line] = append(lines[line], d)
				}
			}
		}
		s.lines[fset.Position(f.Pos()).Filename] = lines
	}
	return s
}

// Suppressed reports whether a diagnostic from the named analyzer at
// pos is covered by an ignore directive.
func (s *Suppressor) Suppressed(analyzer string, pos token.Pos) bool {
	p := s.fset.Position(pos)
	lines := s.lines[p.Filename]
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range lines[line] {
			if d.Verb != "ignore" {
				continue
			}
			name, reason, _ := strings.Cut(d.Args, " ")
			if name == analyzer && strings.TrimSpace(reason) != "" {
				return true
			}
		}
	}
	return false
}

// PkgPathOf returns the package path a function object is declared in
// ("" for builtins and error.Error etc. with no package).
func PkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// CalleeFunc resolves a call expression to the *types.Func it
// statically invokes: a plain function, a method on a concrete value,
// or an interface method. Calls through function-typed variables and
// built-ins resolve to nil.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
