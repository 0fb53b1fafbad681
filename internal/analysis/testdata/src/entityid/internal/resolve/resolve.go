// Package resolve is a fixture stand-in for the repo's merge package:
// T_RS merges through Reduce; a column parser is refused.
package resolve

func Reduce(vals []string) string { return "" }

func Merge(cols []string) []string { return nil } // want `func Merge: T_RS is merged through resolve\.Reduce: .*\(PR 40\)`

func AutoSpecs(cols []string) []string { return nil } // want `func AutoSpecs: T_RS is merged`
