package forbid_test

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"entityid/internal/analysis/forbid"
)

// docs are README.md and the verify skill, the two guides a reader
// follows into the code.
var docs = []string{"../../../README.md", "../../../.claude/skills/verify/SKILL.md"}

// eachDocLine calls f with every line of every doc and its place.
func eachDocLine(t *testing.T, f func(at, line string)) {
	t.Helper()
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			f(fmt.Sprintf("%s:%d", doc, i+1), line)
		}
	}
}

// TestDocsNameNoRetiredPackage holds the docs to the rules that retire a
// package from the whole module by its import: neither may name a
// package that is gone.
func TestDocsNameNoRetiredPackage(t *testing.T) {
	var retired []forbid.Rule
	for _, r := range forbid.Rules {
		if r.Shape.Import != "" && slices.Contains(r.Scope.Pkgs, "entityid/...") {
			retired = append(retired, r)
		}
	}
	if len(retired) == 0 {
		t.Fatal("no rule retires a package by its import")
	}
	eachDocLine(t, func(at, line string) {
		for _, r := range retired {
			if name := strings.TrimPrefix(r.Shape.Import, "entityid/"); strings.Contains(line, name) {
				t.Errorf("%s names %s: %s (PR %d)", at, name, r.Reason, r.PR)
			}
		}
	})
}

// retiredRecords are the log records that carried tuples before the run
// record (PR 48); wal refuses each by name, and the refusal texts in
// recordRefusals are the only place the docs may name one as a record.
var (
	retiredRecords = regexp.MustCompile("[`\"]?\\b(insert|add_source|source_chunk)\\b[`\"]? records?\\b")
	recordRefusals = []string{"wal: insert record of", "wal: add_source record of"}
)

// TestDocsNameNoRetiredFuncOrRecord holds the docs to the functions a
// rule retires by name, written as code (`appendChunk`,
// `wal.AppendInsert(…)`) so that prose cannot trip it, and to the log
// records PR 48 retired, named as records.
func TestDocsNameNoRetiredFuncOrRecord(t *testing.T) {
	type fn struct {
		re *regexp.Regexp
		r  forbid.Rule
	}
	var fns []fn
	for _, r := range forbid.Rules {
		for _, name := range r.Shape.Funcs {
			re := regexp.MustCompile("`(?:[\\w*().]+\\.)?" + name + "(?:\\([^`]*\\))?`")
			fns = append(fns, fn{re, r})
		}
	}
	if len(fns) == 0 {
		t.Fatal("no rule retires a function by name")
	}
	// The read side's retired names (PR 56), as code and as near misses:
	// a name a retired one begins, or one in prose, is not it.
	for line, fires := range map[string]bool{
		"`materializeInto`": true, "`h.materializeInto(buf, t, ms)`": true, "`(*Hub).nodeID`": true,
		"`materialize`": false, "`nodeIDs`": false, "builds its ID (nodeID)": false,
	} {
		named := slices.ContainsFunc(fns, func(f fn) bool { return f.re.MatchString(line) })
		if named != fires {
			t.Errorf("%q names a retired function: %v, want %v", line, named, fires)
		}
	}
	eachDocLine(t, func(at, line string) {
		for _, f := range fns {
			if m := f.re.FindString(line); m != "" {
				t.Errorf("%s names %s: %s (PR %d)", at, m, f.r.Reason, f.r.PR)
			}
		}
		for _, ok := range recordRefusals {
			line = strings.ReplaceAll(line, ok, "")
		}
		if m := retiredRecords.FindString(line); m != "" {
			t.Errorf("%s names the retired log record %s: a run of tuples has one record, the run record (PR 48)", at, m)
		}
	})
}
