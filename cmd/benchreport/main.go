// Command benchreport runs every experiment in the reproduction — the
// thirteen artifacts the paper prints: Tables 1–8 (2 and 3 are one),
// Figures 1–4 and both §6 prototype sessions — and prints each rendered
// artifact with its paper-vs-measured verdict, then "13/13 experiments
// reproduced" when all of them hold.
//
// Usage:
//
//	benchreport         # print all reports
//	benchreport -id T7  # print one report
//	benchreport -check  # exit 1 if any reproduction check fails
//
// Performance is not measured here: bench/ drives entityidd over a
// socket (see bench/README.md) and each layer has ordinary Benchmark*
// functions (go test -run=NONE -bench=. ./internal/<layer>).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"entityid/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		id    = fs.String("id", "", "run only the experiment with this id (e.g. T7, F3)")
		check = fs.Bool("check", false, "exit nonzero if any reproduction check fails")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	failures := 0
	ran := 0
	for _, runner := range experiments.Registry() {
		if *id != "" && !strings.EqualFold(runner.ID, *id) {
			continue
		}
		rep := runner.Run()
		ran++
		fmt.Fprintf(w, "==== %s: %s ====\n", rep.ID, rep.Title)
		fmt.Fprint(w, rep.Text)
		if rep.Check == nil {
			fmt.Fprintf(w, "[%s] REPRODUCED\n\n", rep.ID)
		} else {
			failures++
			fmt.Fprintf(w, "[%s] FAILED: %v\n\n", rep.ID, rep.Check)
		}
	}
	if ran == 0 {
		fmt.Fprintf(w, "no experiment with id %q\n", *id)
		return 2
	}
	fmt.Fprintf(w, "%d/%d experiments reproduced\n", ran-failures, ran)
	if *check && failures > 0 {
		return 1
	}
	return 0
}
