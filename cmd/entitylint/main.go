// Command entitylint is the hub's multichecker: it runs the
// internal/analysis suite (forbid, hotpath, lockorder, walfirst) over
// Go packages; TestRepoClean runs it over the module in `go test ./...`.
//
//	entitylint ./...                 # analyze package patterns
//	entitylint -disable hotpath ./...
//	entitylint -list                 # describe the analyzers
//
// It loads the packages itself (internal/analysis/load, the loader the
// analyzers' own tests use): every package of the module, test variants
// included, is type-checked from source and only the standard library
// is read from export data, so it compiles nothing of the module: over
// this module it takes ~1.1 s on 2 vCPUs, right after an exported-API
// edit to a low-level package as on an unchanged tree.
//
// Exit status: 0 clean, 1 usage or load failure, 2 findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"entityid/internal/analysis"
	"entityid/internal/analysis/forbid"
	"entityid/internal/analysis/hotpath"
	"entityid/internal/analysis/load"
	"entityid/internal/analysis/lockorder"
	"entityid/internal/analysis/walfirst"
)

// suite is every analyzer the multichecker runs, in report order.
var suite = []*analysis.Analyzer{
	forbid.Analyzer,
	hotpath.Analyzer,
	lockorder.Analyzer,
	walfirst.Analyzer,
}

func main() {
	var (
		disable = flag.String("disable", "", "comma-separated analyzer names to skip")
		list    = flag.Bool("list", false, "describe the analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: entitylint [-disable names] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	enabled := enabledAnalyzers(*disable)

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(run(args, enabled))
}

func enabledAnalyzers(disable string) []*analysis.Analyzer {
	skip := map[string]bool{}
	for _, name := range strings.Split(disable, ",") {
		if name = strings.TrimSpace(name); name != "" {
			skip[name] = true
		}
	}
	var out []*analysis.Analyzer
	for _, a := range suite {
		if !skip[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

// run loads the patterns and runs every analyzer over every package;
// the return value is the process exit status.
func run(patterns []string, enabled []*analysis.Analyzer) int {
	pkgs, err := load.Module(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "entitylint:", err)
		return 1
	}
	exit := 0
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			for _, e := range p.TypeErrors {
				fmt.Fprintf(os.Stderr, "entitylint: %s: %v\n", p.PkgPath, e)
			}
			exit = 1
			continue
		}
		for _, a := range enabled {
			diags, err := analysis.Diagnose(a, p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "entitylint: %s: %s: %v\n", p.PkgPath, a.Name, err)
				exit = 1
				continue
			}
			for _, d := range diags {
				fmt.Printf("%s: %s [%s]\n", p.Fset.Position(d.Pos), d.Message, a.Name)
				exit = 2
			}
		}
	}
	return exit
}
