package main

// Golden-file tests for the printed prototype sessions: each session's
// whole output — verdict, R′, S′, matching table, integrated table — must
// match its checked-in file byte for byte, so a moved row or column is
// caught, not only a missing substring.
//
// Regenerate with:
//
//	go test ./cmd/entityid -run TestSessionGolden -update-golden

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden")

func TestSessionGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"example3", []string{"-example3"}},
		{"example3-fixpoint", []string{"-example3", "-fixpoint"}},
		{"example3-extkey-name", []string{"-example3", "-extkey", "name"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var b strings.Builder
			if err := run(c.args, &b); err != nil {
				t.Fatalf("run: %v", err)
			}
			checkGolden(t, filepath.Join("testdata", c.name+".golden"), b.String())
		})
	}
}

// checkGolden compares got with the file at path, or rewrites the file
// under -update-golden.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if string(want) != got {
		t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
