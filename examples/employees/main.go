// Employees: the paper's §4 motivating scenario. "A company wanting to
// dismiss employees with sales performance below expectation requires
// matching between the employee records in one database and their
// performance records in another. It is crucial that the set of matched
// records be correct; otherwise, some people may be wrongly fired."
//
// HR's database keys employees by (name, office); the sales database
// keys performance rows by (name, territory). Two different J. Smiths
// work in different offices. A probabilistic name match fires the wrong
// J. Smith; the extended-key technique refuses to match until the DBA
// supplies ILFDs tying offices to territories — and then matches only
// what the knowledge supports.
//
// Run with: go run ./examples/employees
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"entityid"
	"entityid/internal/baselines"
	"entityid/internal/match"
	"entityid/internal/quality"
)

func main() {
	if err := demo(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func demo(w io.Writer) error {
	hr, err := entityid.NewRelation("HR", []entityid.Attribute{
		{Name: "name"}, {Name: "office"}, {Name: "title"},
	}, []string{"name", "office"})
	if err != nil {
		return err
	}
	for _, row := range [][3]string{
		{"j.smith", "minneapolis", "account-exec"},
		{"j.smith", "st.paul", "senior-exec"},
		{"m.jones", "minneapolis", "account-exec"},
		{"a.chen", "edina", "manager"},
	} {
		if err := hr.InsertStrings(row[0], row[1], row[2]); err != nil {
			return err
		}
	}
	perf, err := entityid.NewRelation("Sales", []entityid.Attribute{
		{Name: "name"}, {Name: "territory"}, {Name: "quota_met"},
	}, []string{"name", "territory"})
	if err != nil {
		return err
	}
	for _, row := range [][3]string{
		{"j.smith", "north", "no"}, // the St. Paul Smith — safe job, bad quarter
		{"m.jones", "south", "yes"},
		{"a.chen", "west", "yes"},
	} {
		if err := perf.InsertStrings(row[0], row[1], row[2]); err != nil {
			return err
		}
	}
	// Ground truth: north territory belongs to the St. Paul office, so
	// the performance row is the *second* J. Smith (HR row 1).
	truth := quality.TruthSet{
		{1, 0}: true, {2, 1}: true, {3, 2}: true,
	}

	fmt.Fprintln(w, "== probabilistic name matching (Pu, §2.2) ==")
	pk := baselines.ProbabilisticKey{
		Key:       []baselines.AttrPair{{R: "name", S: "name"}},
		Threshold: 0.7,
	}
	mt, err := pk.Match(hr, perf)
	if err != nil {
		return err
	}
	sc := quality.Evaluate(mt, truth)
	fmt.Fprintf(w, "matches: %d, score: %s\n", mt.Len(), sc)
	wrong := 0
	for p := range mt.All() {
		if !truth[[2]int{p.RIndex, p.SIndex}] {
			wrong++
			fmt.Fprintf(w, "  WRONGLY matched HR row %d (%s@%s) to performance row %d — someone gets fired by mistake\n",
				p.RIndex, hr.MustValue(p.RIndex, "name"), hr.MustValue(p.RIndex, "office"), p.SIndex)
		}
	}
	if wrong == 0 {
		return fmt.Errorf("expected the probabilistic baseline to mis-match a J. Smith")
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== extended key + ILFDs (the paper's technique) ==")
	sys := entityid.New()
	sys.SetRelations(hr, perf)
	sys.MapAttr("name", "name", "name")
	sys.MapAttr("office", "office", "")
	sys.MapAttr("territory", "", "territory")
	sys.SetExtendedKey("name", "office")
	// DBA knowledge: territories determine offices.
	for _, line := range []string{
		"territory=north -> office=st.paul",
		"territory=south -> office=minneapolis",
		"territory=west -> office=edina",
	} {
		if err := sys.AddILFDText(line); err != nil {
			return err
		}
	}
	res, err := sys.Identify()
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.RenderMatchingTable())
	ours := quality.Evaluate(match.NewTable(nil, nil, res.MatchingPairs()...), truth)
	fmt.Fprintf(w, "score: %s\n", ours)
	if !ours.Sound() {
		return fmt.Errorf("our matching is unsound: %s", ours)
	}
	if ours.Recall() != 1 {
		return fmt.Errorf("full knowledge should give full recall: %s", ours)
	}
	fmt.Fprintln(w, "sound: the Minneapolis J. Smith is never matched to the failing north-territory row.")
	return nil
}
