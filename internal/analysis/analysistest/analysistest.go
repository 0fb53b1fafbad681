// Package analysistest runs an analyzer over GOPATH-style fixture
// packages and checks its diagnostics against // want comments, in the
// style of golang.org/x/tools/go/analysis/analysistest: every
// diagnostic must match a want expectation on its line, and every
// expectation must be consumed. Because expectations are exact, a
// fixture with want comments fails loudly if the analyzer is disabled
// or stops detecting its violation — the fixtures are self-proving.
package analysistest

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"entityid/internal/analysis"
	"entityid/internal/analysis/load"
)

// wantRe matches one expectation comment: // want "rx" "rx" ... where
// each pattern is a double-quoted Go string or a backquoted raw string.
var (
	wantRe    = regexp.MustCompile(`//\s*want\s+(.*)$`)
	patternRe = regexp.MustCompile("(\"(?:[^\"\\\\]|\\\\.)*\")|(`[^`]*`)")
)

// expectation is one want pattern awaiting a diagnostic.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// collectWants scans the loaded package's comments for expectations.
func collectWants(t *testing.T, p *load.Package) []*expectation {
	var wants []*expectation
	for _, f := range p.Files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				pats := patternRe.FindAllString(m[1], -1)
				if len(pats) == 0 {
					t.Errorf("%s:%d: malformed want comment: %s", pos.Filename, pos.Line, c.Text)
					continue
				}
				for _, pat := range pats {
					body := pat[1 : len(pat)-1]
					if pat[0] == '"' {
						body = strings.NewReplacer(`\"`, `"`, `\\`, `\`).Replace(body)
					}
					rx, err := regexp.Compile(body)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, body, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx, raw: body})
				}
			}
		}
	}
	return wants
}

// Run loads each fixture package from testdata/src, applies the
// analyzer, and verifies its diagnostics against the // want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkgPath := range pkgs {
		p, err := load.Fixture(testdata+"/src", pkgPath)
		if err != nil {
			t.Fatalf("loading fixture %q: %v", pkgPath, err)
		}
		if len(p.TypeErrors) > 0 {
			for _, e := range p.TypeErrors {
				t.Errorf("fixture %q: type error: %v", pkgPath, e)
			}
			t.FailNow()
		}
		diags := RunPass(t, a, p)
		wants := collectWants(t, p)
		for _, d := range diags {
			pos := p.Fset.Position(d.Pos)
			matched := false
			for _, w := range wants {
				if w.matched || w.file != pos.Filename || w.line != pos.Line {
					continue
				}
				if w.rx.MatchString(d.Message) {
					w.matched = true
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matched pattern %q", w.file, w.line, w.raw)
			}
		}
	}
}

// RunPass applies the analyzer to one loaded package and returns its
// surviving (non-suppressed) diagnostics sorted by position.
func RunPass(t *testing.T, a *analysis.Analyzer, p *load.Package) []analysis.Diagnostic {
	t.Helper()
	diags, err := diagnose(a, p)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	return diags
}

// Diagnose is RunPass without a testing.T, for the driver: it returns
// formatted findings ("file:line:col: message [analyzer]").
func Diagnose(a *analysis.Analyzer, p *load.Package) ([]string, error) {
	diags, err := diagnose(a, p)
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = fmt.Sprintf("%s: %s [%s]", p.Fset.Position(d.Pos), d.Message, a.Name)
	}
	return out, err
}

func diagnose(a *analysis.Analyzer, p *load.Package) ([]analysis.Diagnostic, error) {
	sup := analysis.NewSuppressor(p.Fset, p.Files)
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      p.Fset,
		Files:     p.Files,
		Pkg:       p.Types,
		TypesInfo: p.Info,
		Report: func(d analysis.Diagnostic) {
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
