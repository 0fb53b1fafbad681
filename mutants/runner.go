// Package mutants holds a catalogue of seeded faults and the runner that
// plants each one and runs the tests that must refuse it.
//
// A mutant is one exact edit of one file. The runner never writes into
// the checkout: it writes the mutated file to a temporary directory and
// hands it to the go command with -overlay, which swaps it in at build
// time. A mutant is killed when the default tests of every package it
// names fail with it; the tests that failed are its killers.
package mutants

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// Mutant is one seeded fault.
type Mutant struct {
	ID   string   // short name, unique in the catalogue
	File string   // the file it edits, from the repository root
	Old  string   // text that must occur in File exactly once
	New  string   // what replaces it
	Why  string   // the behaviour the edit breaks
	Pkgs []string // packages whose default tests must refuse it, "./internal/hub"
}

// HubPkg is the package whose mutants also run on the squeezed disk leg.
const HubPkg = "./internal/hub"

// DiskLeg is the flags of the hub's squeezed disk leg (they follow the
// package, as the test binary's own flags).
var DiskLeg = []string{"-hub.store=disk", "-hub.hot-clusters=256"}

// Leg is one go test run a mutant must fail: a package, on its default
// flags or on the disk leg.
type Leg struct {
	Pkg  string
	Disk bool
}

func (l Leg) String() string {
	s := strings.TrimPrefix(l.Pkg, "./")
	if l.Disk {
		s += "[disk]"
	}
	return s
}

// Legs is every run m must fail: each named package, and the disk leg
// of the hub's when it names the hub.
func (m Mutant) Legs() []Leg {
	var legs []Leg
	for _, p := range m.Pkgs {
		legs = append(legs, Leg{Pkg: p})
		if p == HubPkg {
			legs = append(legs, Leg{Pkg: p, Disk: true})
		}
	}
	return legs
}

// Plant writes m's file, mutated, under tmp and returns an overlay file
// for the go command. It fails when Old does not occur in the file
// exactly once: the catalogue has to follow the code.
func (m Mutant) Plant(root, tmp string) (string, error) {
	path := filepath.Join(root, m.File)
	src, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if n := bytes.Count(src, []byte(m.Old)); n != 1 {
		return "", fmt.Errorf("%s: stale: its old string occurs %d times in %s, want once", m.ID, n, m.File)
	}
	mutated := filepath.Join(tmp, filepath.Base(m.File))
	if err := os.WriteFile(mutated, bytes.Replace(src, []byte(m.Old), []byte(m.New), 1), 0o644); err != nil {
		return "", err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
	if err != nil {
		return "", err
	}
	file := filepath.Join(tmp, "overlay.json")
	return file, os.WriteFile(file, overlay, 0o644)
}

// Build compiles m's packages, tests included, with the overlay: a
// mutant that does not compile is an error of the catalogue, not a kill.
func Build(root, overlay string, m Mutant) error {
	args := append([]string{"vet", "-overlay=" + overlay}, m.Pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%s does not build: %v\n%s", m.ID, err, out)
	}
	return nil
}

// event is the part of a `go test -json` line the runner reads.
type event struct {
	Action      string
	Package     string
	Test        string
	FailedBuild string
}

// Killers runs one leg's tests with the overlay and returns the top-level
// tests that failed. A package that failed with no failing test (a panic
// outside any test, a timeout) counts as one killer, "(package)".
func Killers(root, overlay string, leg Leg) (killers []string, err error) {
	args := []string{"test", "-overlay=" + overlay, "-count=1", "-json", "-timeout=5m", leg.Pkg}
	if leg.Disk {
		args = append(args, DiskLeg...)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil && len(stdout) == 0 {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	failedPkg := false
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e event
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		switch {
		case e.FailedBuild != "" || e.Action == "build-fail":
			return nil, fmt.Errorf("%s does not build under test: %s", leg, stderr.Bytes())
		case e.Action == "fail" && e.Test == "":
			failedPkg = true
		case e.Action == "fail" && !strings.Contains(e.Test, "/") && !slices.Contains(killers, e.Test):
			killers = append(killers, e.Test)
		}
	}
	if failedPkg && len(killers) == 0 {
		killers = []string{"(package)"}
	}
	slices.Sort(killers)
	return killers, sc.Err()
}
