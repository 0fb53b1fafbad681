// Command entityid is the reproduction of the paper's §6 prototype: it
// loads two relations (CSV) and a set of ILFDs (rule file), lets the
// user pick an extended key, verifies it, and prints the extended
// relations, the matching table and the integrated table.
//
// Usage:
//
//	entityid -r r.csv -s s.csv -ilfds rules.txt \
//	    -map name=name:name -map cuisine=cuisine: -map speciality=:speciality \
//	    -extkey name,cuisine,speciality [-print extended,matchtable,integtable]
//
//	entityid -example3            # run the paper's Example 3 end-to-end
//	entityid -example3 -extkey name   # reproduce the §6.3 unsound-key session
//
// CSV headers are "attr[:kind]" with key columns starred ("*name"); the
// rule file holds one ILFD per line ("speciality=Hunan ->
// cuisine=Chinese"). Each -map flag is integrated=rattr:sattr with
// either side optionally empty.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"entityid/internal/derive"
	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/paperdata"
	"entityid/internal/relation"
	"entityid/internal/value"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "entityid:", err)
		os.Exit(1)
	}
}

type mapFlags []string

func (m *mapFlags) String() string { return strings.Join(*m, ",") }
func (m *mapFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("entityid", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		rPath    = fs.String("r", "", "CSV file for relation R")
		sPath    = fs.String("s", "", "CSV file for relation S")
		ilfdPath = fs.String("ilfds", "", "ILFD rule file (one per line)")
		extKey   = fs.String("extkey", "", "comma-separated extended key (integrated names)")
		printSel = fs.String("print", "extended,matchtable,integtable", "comma-separated outputs")
		example3 = fs.Bool("example3", false, "run the paper's Example 3 fixtures")
		fixpoint = fs.Bool("fixpoint", false, "use fixpoint derivation instead of Prolog-style cut")
		analyze  = fs.Bool("analyze", false, "analyze the ILFD knowledge base instead of matching")
		explain  = fs.String("explain", "", "with -analyze: derive the given ILFD with a proof trace")
		maps     mapFlags
	)
	fs.Var(&maps, "map", "attribute map entry integrated=rattr:sattr (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg match.Config
	if *example3 {
		cfg = match.Config{
			R: paperdata.Table5R(),
			S: paperdata.Table5S(),
			Attrs: []match.AttrMap{
				{Name: "name", R: "name", S: "name"},
				{Name: "cuisine", R: "cuisine", S: ""},
				{Name: "speciality", R: "", S: "speciality"},
				{Name: "street", R: "street", S: ""},
				{Name: "county", R: "", S: "county"},
			},
			ExtKey: paperdata.Example3ExtendedKey(),
			ILFDs:  paperdata.Example3ILFDs(),
		}
	} else {
		if *rPath == "" || *sPath == "" {
			return fmt.Errorf("need -r and -s (or -example3)")
		}
		r, err := loadCSV("R", *rPath)
		if err != nil {
			return err
		}
		s, err := loadCSV("S", *sPath)
		if err != nil {
			return err
		}
		cfg.R, cfg.S = r, s
		for _, m := range maps {
			am, err := parseMap(m)
			if err != nil {
				return err
			}
			cfg.Attrs = append(cfg.Attrs, am)
		}
		if *ilfdPath != "" {
			f, err := os.Open(*ilfdPath)
			if err != nil {
				return err
			}
			set, err := ilfd.ParseSet(f, nil)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", *ilfdPath, err)
			}
			cfg.ILFDs = set
		}
	}
	if *analyze {
		return analyzeILFDs(w, cfg.ILFDs, *explain)
	}
	if *extKey != "" {
		cfg.ExtKey = splitComma(*extKey)
	}
	if len(cfg.ExtKey) == 0 {
		return fmt.Errorf("need -extkey")
	}
	if *fixpoint {
		cfg.DeriveMode = derive.Fixpoint
	}

	// The prototype's setup_extkey flow: list candidates, build, verify.
	fmt.Fprintf(w, "extended key: {%s}\n", strings.Join(cfg.ExtKey, ", "))
	res, err := match.Build(cfg)
	if err != nil {
		return err
	}
	for _, c := range res.Conflicts {
		fmt.Fprintf(w, "warning: %v\n", c)
	}
	if verr := res.Verify(); verr != nil {
		fmt.Fprintf(w, "Message: The extended key causes unsound matching result.\n")
		fmt.Fprintf(w, "  (%v)\n", verr)
	} else {
		fmt.Fprintf(w, "Message: The extended key is verified.\n")
	}
	fmt.Fprintln(w)

	want := map[string]bool{}
	for _, p := range splitComma(*printSel) {
		want[p] = true
	}
	if want["extended"] {
		fmt.Fprintln(w, res.RPrime.String())
		fmt.Fprintln(w, res.SPrime.String())
	}
	if want["matchtable"] {
		fmt.Fprintln(w, res.RenderMT("matching table"))
	}
	if want["integtable"] {
		fmt.Fprintln(w, res.RenderIntegrated("integrated table"))
	}
	return nil
}

// analyzeILFDs prints a knowledge-base report: the rules, the
// attributes they can derive, redundancies, a minimal cover, the
// relational (ILFD table) decomposition, and — when requested — a
// derivation proof for one goal.
func analyzeILFDs(w io.Writer, fs ilfd.Set, goal string) error {
	if len(fs) == 0 {
		return fmt.Errorf("no ILFDs to analyze (use -ilfds or -example3)")
	}
	fmt.Fprintf(w, "ILFDs (%d):\n", len(fs))
	for i, f := range fs {
		marker := " "
		if ilfd.Redundant(fs, i) {
			marker = "R" // implied by the others
		}
		fmt.Fprintf(w, "  %s I%d: %v\n", marker, i+1, f)
	}
	fmt.Fprintln(w, "  (R = redundant: implied by the remaining rules)")

	fmt.Fprint(w, "\nderivable attributes:")
	derivable := derive.Derivable(fs)
	attrs := make([]string, 0, len(derivable))
	for a := range derivable {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		fmt.Fprintf(w, " %s", a)
	}
	fmt.Fprintln(w)

	cover := ilfd.MinimalCover(fs)
	fmt.Fprintf(w, "\nminimal cover (%d rules):\n", len(cover))
	for _, f := range cover {
		fmt.Fprintf(w, "  %v\n", f)
	}

	tables, rest, err := ilfd.FromSet(fs, func(string) value.Kind { return value.KindString })
	if err != nil {
		fmt.Fprintf(w, "\nrelational storage: not possible (%v)\n", err)
	} else {
		fmt.Fprintf(w, "\nrelational storage (§4.2): %d ILFD table(s), %d rule(s) kept in rule form\n",
			len(tables), len(rest))
		for _, tab := range tables {
			fmt.Fprintln(w)
			fmt.Fprint(w, tab.Relation().String())
		}
	}

	if goal != "" {
		g, err := ilfd.ParseLine(goal)
		if err != nil {
			return fmt.Errorf("-explain: %w", err)
		}
		proof, ok := ilfd.Explain(fs, g)
		fmt.Fprintln(w)
		if !ok {
			fmt.Fprintf(w, "goal %v does NOT follow from the ILFDs\n", g)
			return nil
		}
		fmt.Fprint(w, proof.String())
	}
	return nil
}

func loadCSV(name, path string) (*relation.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return relation.ReadCSV(name, f)
}

// parseMap parses integrated=rattr:sattr.
func parseMap(s string) (match.AttrMap, error) {
	eq := strings.IndexByte(s, '=')
	if eq < 0 {
		return match.AttrMap{}, fmt.Errorf("bad -map %q: want integrated=rattr:sattr", s)
	}
	name := s[:eq]
	rest := s[eq+1:]
	colon := strings.IndexByte(rest, ':')
	if colon < 0 {
		return match.AttrMap{}, fmt.Errorf("bad -map %q: want integrated=rattr:sattr", s)
	}
	return match.AttrMap{Name: name, R: rest[:colon], S: rest[colon+1:]}, nil
}

func splitComma(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
