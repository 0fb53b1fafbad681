package experiments

import (
	"fmt"
	"strings"

	"entityid/internal/match"
)

// Prototype1 reproduces the first §6.3 console session: selecting the
// extended key {name, speciality, cuisine} verifies, and the matching
// and integrated tables print. (The Prolog prototype lower-cases atoms;
// we keep source casing — a formatting difference only.)
func Prototype1() Report {
	rep := Report{ID: "P1", Title: "§6.3 session 1 — setup_extkey {name, spec, cui}: verified"}
	var b strings.Builder
	b.WriteString("| ?- setup_extkey.\n")
	b.WriteString("[0] Name: (r_name,s_name)\n")
	b.WriteString("[1] Spec: (r_spec,s_spec)\n")
	b.WriteString("[2] Cui:  (r_cui,s_cui)\n")
	b.WriteString("Please input the no. of keys: 3\n")
	b.WriteString("keys: 0 1 2\n\n")

	res, tab, err := integratedExample3()
	if err != nil {
		rep.Check = err
		return rep
	}
	if verr := res.Verify(); verr != nil {
		rep.Check = fmt.Errorf("expected verification to pass: %v", verr)
		return rep
	}
	b.WriteString("Message: The extended key is verified.\n\n")
	b.WriteString("| ?- print_matchtable.\n")
	b.WriteString(res.RenderMT("matching table"))
	b.WriteByte('\n')
	b.WriteString("| ?- print_integ_table.\n")
	b.WriteString(res.RenderIntegrated("integrated table"))

	// Structural pins against the paper's transcript: 3 matching rows,
	// 6 integrated rows, the villagewok row all-NULL on the S side.
	if res.MT.Len() != 3 {
		rep.Check = fmt.Errorf("matching table rows = %d, want 3", res.MT.Len())
	}
	if tab.Len() != 6 {
		rep.Check = fmt.Errorf("integrated rows = %d, want 6", tab.Len())
	}
	text := b.String()
	for _, want := range []string{"Anjuman", "It'sGreek", "TwinCities", "VillageWok", "null"} {
		if !strings.Contains(text, want) {
			rep.Check = fmt.Errorf("transcript missing %q", want)
		}
	}
	rep.Text = text
	return rep
}

// Prototype2 reproduces the second §6.3 session: the extended key
// {name} alone produces an unsound matching result and the system
// warns.
func Prototype2() Report {
	rep := Report{ID: "P2", Title: "§6.3 session 2 — setup_extkey {name}: unsound"}
	var b strings.Builder
	b.WriteString("| ?- setup_extkey.\n")
	b.WriteString("Please input the no. of keys: 1\n")
	b.WriteString("keys: 0 (Name)\n\n")

	cfg := example3Config()
	cfg.ExtKey = []string{"name"}
	res, err := match.Build(cfg)
	if err != nil {
		rep.Check = err
		return rep
	}
	verr := res.Verify()
	if verr == nil {
		rep.Check = fmt.Errorf("expected the unsound-key warning")
		rep.Text = b.String()
		return rep
	}
	b.WriteString("Message: The extended key causes unsound matching result.\n")
	fmt.Fprintf(&b, "(violation: %v)\n", verr)
	rep.Text = b.String()
	return rep
}
