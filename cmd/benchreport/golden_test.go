package main

// A golden file for the whole printed paper: all thirteen reports under
// -check must match testdata/benchreport.golden byte for byte, so a
// moved row or column fails even when every verdict still holds.
//
// Regenerate with:
//
//	go test ./cmd/benchreport -run TestReportGolden -update-golden

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/benchreport.golden")

func TestReportGolden(t *testing.T) {
	var b strings.Builder
	if code := run([]string{"-check"}, &b); code != 0 {
		t.Fatalf("run -check = %d\n%s", code, b.String())
	}
	path := filepath.Join("testdata", "benchreport.golden")
	got := b.String()
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
		t.Errorf("report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
