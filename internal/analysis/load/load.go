// Package load turns Go packages into analysis passes without
// golang.org/x/tools. Every package is type-checked from source, each
// once, on first use: module packages as `go list -deps -test -json`
// enumerates them, test variants included, and GOPATH-style fixture
// trees (internal/analysis/testdata/src) by directory. Only the
// standard library is read from export data (the compiler's own,
// through go/importer's gc lookup mode), so the lint compiles no
// package of the module: this module's whole listing, test variants
// included, loads in under a second on 2 vCPUs, warm build cache or not
// for the module's own code. Everything works offline: the only
// external process is the go command itself.
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
}

const listFields = "ImportPath,Dir,Export,GoFiles,Standard,DepOnly,ForTest,ImportMap"

// goList runs `go list -json` with the given extra arguments in dir
// and decodes the package stream.
func goList(dir string, args ...string) ([]*listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json=" + listFields}, args...)...)
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

// stdExports caches standard-library export-data files across loads
// (each `go list -export -deps` answer covers a whole import closure,
// so the cache converges after the first few queries).
var stdExports = struct {
	sync.Mutex
	files map[string]string // "" for a path asked about and not found
}{files: map[string]string{}}

// listStd asks the go command for the export data of the named
// standard-library packages and their dependencies (compiling what the
// build cache lacks) and caches every standard package in the answer.
// The caller holds stdExports.
func listStd(dir string, paths ...string) error {
	listed, err := goList(dir, append([]string{"-export", "-deps", "--"}, paths...)...)
	if err != nil {
		return err
	}
	for _, p := range listed {
		if p.Standard && p.Export != "" {
			stdExports.files[p.ImportPath] = p.Export
		}
	}
	return nil
}

// stdExportFile resolves a standard-library import path to its export
// data file, querying the go command on first sight.
func stdExportFile(dir, path string) (string, error) {
	stdExports.Lock()
	defer stdExports.Unlock()
	if _, asked := stdExports.files[path]; !asked {
		stdExports.files[path] = ""
		if err := listStd(dir, path); err != nil {
			return "", err
		}
	}
	if f := stdExports.files[path]; f != "" {
		return f, nil
	}
	return "", fmt.Errorf("%q is not a standard-library package", path)
}

// source is one package to check from source.
type source struct {
	dir       string
	files     []string          // relative to dir
	importMap map[string]string // an import path to the package it means here
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loader checks the packages of one load from source, each once and on
// first use, in one file set; a path it finds no source for is a
// standard-library package, read from export data.
type loader struct {
	fset *token.FileSet
	find func(path string) (*source, error) // nil, nil: no source
	pkgs map[string]*Package                // nil while being checked
	std  types.Importer
}

func newLoader(dir string, find func(string) (*source, error)) *loader {
	fset := token.NewFileSet()
	return &loader{fset: fset, find: find, pkgs: map[string]*Package{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, err := stdExportFile(dir, path)
			if err != nil {
				return nil, err
			}
			return os.Open(f)
		})}
}

// load returns the package path names, checked, or nil if path has no
// source. A test variant ("p [p.test]") type-checks as its plain path.
func (l *loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return p, nil
	}
	src, err := l.find(path)
	if src == nil || err != nil {
		return nil, err
	}
	l.pkgs[path] = nil // cycle guard
	files, err := parseFiles(l.fset, src.dir, src.files)
	if err != nil {
		delete(l.pkgs, path)
		return nil, err
	}
	p := &Package{PkgPath: path, Fset: l.fset, Files: files, Info: newInfo()}
	conf := types.Config{
		Importer: l.importer(src.importMap),
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	typesPath, _, _ := strings.Cut(path, " ")
	p.Types, _ = conf.Check(typesPath, l.fset, files, p.Info)
	l.pkgs[path] = p
	return p, nil
}

// importer resolves one package's imports: through its ImportMap to a
// package with source, else to the standard library.
func (l *loader) importer(importMap map[string]string) types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		switch p, err := l.load(path); {
		case err != nil:
			return nil, err
		case p != nil:
			return p.Types, nil
		}
		return l.std.Import(path)
	})
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

// parseFiles parses the named files (relative to dir) with comments.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Module loads every package matching the patterns in the module
// rooted at dir, including in-package and external test variants, each
// fully type-checked. A dependency is checked from source too, under
// the variant the importing package's ImportMap names, so each analyzed
// package sees its dependencies' complete import graphs.
func Module(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, append([]string{"-deps", "-test", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	// hasTestVariant marks a package whose in-package test variant
	// supersedes it in the analyze set: the variant's file set is a
	// superset, so analyzing both would double-report.
	byPath, hasTestVariant := map[string]*listedPkg{}, map[string]bool{}
	var std []string
	for _, p := range listed {
		byPath[p.ImportPath] = p
		if p.Standard {
			std = append(std, p.ImportPath)
		}
		if p.ForTest != "" && p.ImportPath == p.ForTest+" ["+p.ForTest+".test]" {
			hasTestVariant[p.ForTest] = true
		}
	}
	stdExports.Lock()
	err = listStd(dir, std...)
	stdExports.Unlock()
	if err != nil {
		return nil, err
	}
	l := newLoader(dir, func(path string) (*source, error) {
		if p := byPath[path]; p != nil && !p.Standard {
			return &source{dir: p.Dir, files: p.GoFiles, importMap: p.ImportMap}, nil
		}
		return nil, nil
	})
	// The analyze set: matched, non-standard packages, skipping the
	// synthesized test mains and the packages a test variant supersedes.
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || strings.HasSuffix(p.ImportPath, ".test") ||
			hasTestVariant[p.ImportPath] || len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := l.load(p.ImportPath)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// Fixture loads the GOPATH-style fixture package at srcRoot/path
// (srcRoot is a testdata/src directory): an import that names a
// directory under srcRoot loads from source, anything else from
// standard-library export data.
func Fixture(srcRoot, path string) (*Package, error) {
	abs, err := filepath.Abs(srcRoot)
	if err != nil {
		return nil, err
	}
	l := newLoader(abs, func(pkgPath string) (*source, error) {
		dir := filepath.Join(abs, filepath.FromSlash(pkgPath))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, nil
		}
		var names []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				names = append(names, e.Name())
			}
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("fixture %q: no Go files in %s", pkgPath, dir)
		}
		return &source{dir: dir, files: names}, nil
	})
	p, err := l.load(path)
	if p == nil && err == nil {
		err = fmt.Errorf("fixture %q: no directory %s", path, filepath.Join(abs, filepath.FromSlash(path)))
	}
	return p, err
}
