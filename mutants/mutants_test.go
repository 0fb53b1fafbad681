package mutants

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCatalogue plants every mutant in turn and fails when one survives
// any leg it names, when one does not build, or when one's old string no
// longer occurs exactly once. Then it prints the kill matrix.
func TestCatalogue(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	statSources(t, root)
	ids := map[string]bool{}
	matrix := map[string]map[Leg][]string{}
	for _, m := range Catalogue {
		if ids[m.ID] || len(m.Pkgs) == 0 {
			t.Fatalf("%s: a mutant needs a unique ID and at least one package", m.ID)
		}
		ids[m.ID] = true
		t.Run(m.ID, func(t *testing.T) {
			overlay, err := m.Plant(root, t.TempDir())
			if err == nil {
				err = Build(root, overlay, m)
			}
			if err != nil {
				t.Fatal(err)
			}
			matrix[m.ID] = map[Leg][]string{}
			for _, leg := range m.Legs() {
				killers, err := Killers(root, overlay, leg)
				if err != nil {
					t.Fatal(err)
				}
				if len(killers) == 0 {
					t.Errorf("%s survives %s: %s", m.File, leg, m.Why)
				}
				matrix[m.ID][leg] = killers
			}
		})
	}
	printMatrix(matrix)
}

// printMatrix prints each mutant's killers leg by leg, then every test
// that is the only killer of a mutant on some leg: the tests a deletion
// must keep.
func printMatrix(matrix map[string]map[Leg][]string) {
	alone := map[string][]string{}
	fmt.Println("kill matrix: mutant, then per leg the top-level tests that failed")
	for _, m := range Catalogue {
		legs, ok := matrix[m.ID]
		if !ok {
			continue
		}
		fmt.Printf("%s\n", m.ID)
		for _, leg := range m.Legs() {
			killers := legs[leg]
			fmt.Printf("    %-28s %s\n", leg, strings.Join(killers, " "))
			if len(killers) == 1 {
				alone[leg.String()+" "+killers[0]] = append(alone[leg.String()+" "+killers[0]], m.ID)
			}
		}
	}
	fmt.Println("tests that alone kill a mutant on a leg")
	keys := make([]string, 0, len(alone))
	for k := range alone {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Printf("    %-60s %s\n", k, strings.Join(alone[k], " "))
	}
}

// statSources stats every Go file of the checkout, so the go command's
// test cache counts them as this test's inputs: an edit anywhere in the
// program runs the catalogue again, not its cached result.
func statSources(t *testing.T, root string) {
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return err
		}
		_, err = os.Stat(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
