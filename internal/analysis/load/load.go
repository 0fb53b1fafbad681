// Package load turns Go packages into analysis passes without
// golang.org/x/tools: module packages are enumerated by `go list
// -export -deps -test -json` and type-checked from source against the
// export data the go command already produced (the same data the
// compiler uses, read through go/importer's gc lookup mode), and
// GOPATH-style fixture trees (internal/analysis/testdata/src) are
// type-checked recursively from source with stdlib imports resolved
// the same way. Everything works offline: the only external process is
// the go command itself.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the import path; test variants keep the go list
	// bracket form ("p [p.test]") so diagnostics disambiguate.
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// TypeErrors collects type-checker complaints; analyzers should
	// only run on packages with none.
	TypeErrors []error
}

// listedPkg is the subset of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	ForTest    string
	ImportMap  map[string]string
	Imports    []string
}

const listFields = "ImportPath,Dir,Export,GoFiles,Standard,DepOnly,ForTest,ImportMap,Imports"

// goList runs `go list -export -json` with the given extra arguments
// in dir and decodes the package stream.
func goList(dir string, args ...string) ([]*listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-json=" + listFields}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %s: decoding output: %v", strings.Join(args, " "), err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// newInfo allocates the full types.Info an analyzer pass needs.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// exportLookup builds the go/importer gc-mode lookup function over a
// package's import map and the listed packages' export data.
func exportLookup(importMap map[string]string, listed map[string]*listedPkg) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		if lp := listed[path]; lp != nil && lp.Export != "" {
			return os.Open(lp.Export)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	}
}

// parseFiles parses the named files (relative to dir) with comments.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one package from parsed syntax.
func check(pkgPath string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, []error) {
	var terrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	info := newInfo()
	pkg, _ := conf.Check(pkgPath, fset, files, info)
	return pkg, info, terrs
}

// Module loads every package matching the patterns in the module
// rooted at dir, including in-package and external test variants, each
// fully type-checked. Dependencies resolve through export data, so the
// cost is parsing and checking only the matched packages themselves.
func Module(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, append([]string{"-deps", "-test", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	byPath := map[string]*listedPkg{}
	for _, p := range listed {
		byPath[p.ImportPath] = p
	}
	// The analyze set: matched, non-standard packages, skipping the
	// synthesized test mains and — when an in-package test variant
	// exists — the bare package it supersedes (the variant's file set
	// is a superset, so analyzing both would double-report).
	hasTestVariant := map[string]bool{}
	for _, p := range listed {
		if p.ForTest != "" && p.ImportPath == p.ForTest+" ["+p.ForTest+".test]" {
			hasTestVariant[p.ForTest] = true
		}
	}
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if hasTestVariant[p.ImportPath] {
			continue
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		fset := token.NewFileSet()
		files, err := parseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		// The importer is per-package: the same import path can map to
		// different compilations (test variants) in different packages,
		// so the importer's cache must not leak across them.
		imp := importer.ForCompiler(fset, "gc", exportLookup(p.ImportMap, byPath))
		typesPath := p.ImportPath
		if i := strings.IndexByte(typesPath, ' '); i >= 0 {
			typesPath = typesPath[:i] // "p [p.test]" type-checks as "p"
		}
		tpkg, info, terrs := check(typesPath, fset, files, imp)
		linkImports(tpkg, imp, byPath)
		out = append(out, &Package{
			PkgPath:    p.ImportPath,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
			TypeErrors: terrs,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// linkImports sets the imports of each module package reachable from
// pkg to what go list reports: export data names only the packages a
// dependency's exported objects reference, which would stop a
// transitive walk of Imports (forbid's Links rules) short.
func linkImports(pkg *types.Package, imp types.Importer, listed map[string]*listedPkg) {
	seen := map[*types.Package]bool{}
	for work := pkg.Imports(); len(work) > 0; {
		p, lp := work[0], listed[work[0].Path()]
		work = work[1:]
		if seen[p] || lp == nil || lp.Standard {
			continue
		}
		seen[p] = true
		var imps []*types.Package
		for _, path := range lp.Imports {
			if q, err := imp.Import(path); err == nil {
				imps = append(imps, q)
			}
		}
		p.SetImports(imps)
		work = append(work, imps...)
	}
}

// stdExports caches stdlib export-data locations across fixture loads
// (each `go list -export -deps` answer covers a whole import closure,
// so the cache converges after the first few queries).
var stdExports = struct {
	sync.Mutex
	files map[string]string
}{files: map[string]string{}}

// stdExportFile resolves a standard-library import path to its export
// data file, querying the go command on first sight.
func stdExportFile(dir, path string) (string, error) {
	stdExports.Lock()
	defer stdExports.Unlock()
	if f, ok := stdExports.files[path]; ok {
		if f == "" {
			return "", fmt.Errorf("%q is not a loadable package", path)
		}
		return f, nil
	}
	listed, err := goList(dir, "-deps", "--", path)
	if err != nil {
		stdExports.files[path] = ""
		return "", err
	}
	for _, p := range listed {
		if p.Export != "" {
			stdExports.files[p.ImportPath] = p.Export
		}
	}
	f := stdExports.files[path]
	if f == "" {
		return "", fmt.Errorf("no export data for %q", path)
	}
	return f, nil
}

// fixtureImporter resolves a fixture package's imports: paths that
// exist as directories under the testdata src root load recursively
// from source; anything else resolves as a standard-library import
// through export data.
type fixtureImporter struct {
	srcRoot string
	fset    *token.FileSet
	pkgs    map[string]*Package // loaded fixture packages by path
	gc      types.Importer
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return p.Types, nil
	}
	dir := filepath.Join(fi.srcRoot, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		fi.pkgs[path] = nil // cycle guard
		p, err := loadFixturePkg(fi, path, dir)
		if err != nil {
			return nil, err
		}
		fi.pkgs[path] = p
		return p.Types, nil
	}
	return fi.gc.Import(path)
}

// loadFixturePkg parses and type-checks one fixture directory.
func loadFixturePkg(fi *fixtureImporter, path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("fixture %q: no Go files in %s", path, dir)
	}
	files, err := parseFiles(fi.fset, dir, names)
	if err != nil {
		return nil, err
	}
	tpkg, info, terrs := check(path, fi.fset, files, fi)
	return &Package{
		PkgPath:    path,
		Fset:       fi.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		TypeErrors: terrs,
	}, nil
}

// Fixture loads the GOPATH-style fixture package at srcRoot/path
// (srcRoot is a testdata/src directory), resolving in-tree imports
// from source and everything else from standard-library export data.
func Fixture(srcRoot, path string) (*Package, error) {
	abs, err := filepath.Abs(srcRoot)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	fi := &fixtureImporter{srcRoot: abs, fset: fset, pkgs: map[string]*Package{}}
	fi.gc = importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		f, err := stdExportFile(abs, p)
		if err != nil {
			return nil, err
		}
		return os.Open(f)
	})
	dir := filepath.Join(abs, filepath.FromSlash(path))
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("fixture %q: %v", path, err)
	}
	fi.pkgs[path] = nil
	p, err := loadFixturePkg(fi, path, dir)
	if err != nil {
		return nil, err
	}
	fi.pkgs[path] = p
	return p, nil
}
