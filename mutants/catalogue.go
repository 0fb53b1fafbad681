package mutants

// Catalogue is every seeded fault. Each must fail the default tests of
// every package it names, and the hub's squeezed disk leg too when it
// names the hub. A change that plants a scratch mutant adds it here.
var Catalogue = []Mutant{
	// The paper's guarantees.
	{
		ID:   "checkmerge-same-source",
		File: "internal/store/store.go",
		Old:  "if prev.Src == m.Src {",
		New:  "if false && prev.Src == m.Src {",
		Why:  "§3.2 transitive uniqueness: a merge may put two tuples of one source in one cluster",
		Pkgs: []string{"./internal/store"},
	},
	{
		ID:   "distinct-rule-ignored",
		File: "internal/match/engine.go",
		Old:  "case v%2 == 0 && e.fwd[v/2].Holds(rt, st)",
		New:  "case v > 0 && v%2 == 0 && e.fwd[v/2].Holds(rt, st)",
		Why:  "§3.2 consistency: the first distinctness rule never fires forward",
		Pkgs: []string{"./internal/match"},
	},
	{
		ID:   "prop1-skipped",
		File: "internal/rules/rules.go",
		Old:  "if len(f.Antecedent) == 0 {\n\t\treturn nil\n\t}\n\tvar out []DistinctnessRule",
		New:  "if true {\n\t\treturn nil\n\t}\n\tvar out []DistinctnessRule",
		Why:  "Proposition 1: an ILFD yields no distinctness rule",
		Pkgs: []string{"./internal/rules"},
	},
	{
		ID:   "verdict-drops-cross",
		File: "internal/match/engine.go",
		Old:  "if allHold(cross, t1, t2) {",
		New:  "if allHold(cross[1:], t1, t2) {",
		Why:  "§4 trichotomy: a verdict row tests a rule without its first cross predicate",
		Pkgs: []string{"./internal/match"},
	},
	{
		ID:   "fold-skips-table",
		File: "internal/hub/cluster.go",
		Old:  "if next[i] < t.entries() && (ti < 0",
		New:  "if i > 0 && next[i] < t.entries() && (ti < 0",
		Why:  "§3.3: the cluster fold leaves the first pair's matching table out",
		Pkgs: []string{"./internal/hub"},
	},
	{
		ID:   "identify-rematch",
		File: "internal/match/match.go",
		Old:  "if len(prev) > 0 {",
		New:  "if len(prev) > 1 {",
		Why:  "§3.2 pairwise uniqueness at insert: a tuple already matched takes a second partner",
		Pkgs: []string{"./internal/match"},
	},
	{
		ID:   "null-equals-null",
		File: "internal/value/value.go",
		Old:  "if a.kind == KindNull || b.kind == KindNull {\n\t\treturn false",
		New:  "if a.kind == KindNull || b.kind == KindNull {\n\t\treturn a.kind == b.kind",
		Why:  "§4.2: a NULL extended-key value joins another NULL",
		Pkgs: []string{"./internal/value"},
	},
	{
		ID:   "identify-multi-partner",
		File: "internal/match/match.go",
		Old:  "case len(partners) > 1:",
		New:  "case len(partners) > 2:",
		Why:  "§3.2 uniqueness at insert: a tuple that matches two tuples at once is taken",
		Pkgs: []string{"./internal/match"},
	},
	{
		ID:   "identify-consistency-off",
		File: "internal/match/match.go",
		Old:  "res.engine().distinctFiresNamed(rt, st); fires {",
		New:  "res.engine().distinctFiresNamed(rt, st); fires && false {",
		Why:  "§3.2 consistency at insert: a pair a distinctness rule forbids is matched",
		Pkgs: []string{"./internal/match"},
	},

	// The commit path, the log and recovery.
	{
		ID:   "run-footprint-cut-off",
		File: "internal/hub/commit.go",
		Old:  "if p.runN[other] > 0 && (scans",
		New:  "if false && p.runN[other] > 0 && (scans",
		Why:  "a run does not cut before a tuple that shares a probe footprint with an accepted one",
		Pkgs: []string{"./internal/hub"},
	},
	{
		ID:   "wal-failure-ignored",
		File: "internal/hub/commit.go",
		Old:  "if err := h.per.appendPayloads(payloads); err != nil {",
		New:  "if err := h.per.appendPayloads(payloads); err != nil && false {",
		Why:  "write-ahead: a run the log refused is committed in memory and acknowledged",
		Pkgs: []string{"./internal/hub"},
	},
	{
		ID:   "degrade-never",
		File: "internal/hub/degraded.go",
		Old:  "if !isPersistentIO(err) {\n\t\treturn err\n\t}\n\th.degrade(err)",
		New:  "if err != nil {\n\t\treturn err\n\t}\n\th.degrade(err)",
		Why:  "a persistent log failure leaves the hub read-write instead of degraded",
		Pkgs: []string{"./internal/hub"},
	},
	{
		ID:   "torn-tail-kept",
		File: "internal/wal/wal.go",
		Old:  "truncateTo = good",
		New:  "truncateTo = -1",
		Why:  "recovery leaves a torn tail in the log for the next append to follow",
		Pkgs: []string{"./internal/wal"},
	},
	{
		ID:   "seq-jump-accepted",
		File: "internal/wal/wal.go",
		Old:  "case rec.Seq != last+1:",
		New:  "case false:",
		Why:  "recovery hands over a record whose sequence number skips one",
		Pkgs: []string{"./internal/wal"},
	},

	// Scratch mutants earlier changes quoted.
	{
		ID:   "run-cluster-cut-off",
		File: "internal/hub/commit.go",
		Old:  "if slices.Contains(r.merged, partner) {",
		New:  "if false && slices.Contains(r.merged, partner) {",
		Why:  "a run does not cut before a tuple whose partner an accepted tuple of the run merges",
		Pkgs: []string{"./internal/hub"},
	},
	{
		ID:   "recover-reuses-batch",
		File: "internal/wal/wal.go",
		Old:  "batch = make([]Record, 0, cap(batch))",
		New:  "batch = batch[:0]",
		Why:  "recovery overwrites a batch of records its caller still holds",
		Pkgs: []string{"./internal/wal"},
	},
	{
		ID:   "verbatim-bit-by-plain",
		File: "internal/relation/json.go",
		Old:  "row[c] = tb.strs.putBytes(s, verbatim)",
		New:  "row[c] = tb.strs.putBytes(s, ok || verbatim)",
		Why:  "a decoded string that needs escaping is marked verbatim and rendered raw",
		Pkgs: []string{"./internal/relation"},
	},
	{
		ID:   "window-relookup",
		File: "internal/store/disk/disk.go",
		Old: "\treturn c.readRuns(cold, tail, &wb.run, windowRunBytes, &w.Arena, func(at int, ms []store.Node) {\n" +
			"\t\tgot[at].Members = ms\n\t})\n",
		New: "\tfor _, cr := range cold {\n" +
			"\t\tc.mu.Lock()\n" +
			"\t\tr := c.idx.Get(store.Node{Src: w.Src, Idx: w.Lo + int(cr.at)})\n" +
			"\t\tms, err := r.members, error(nil)\n" +
			"\t\tif ms == nil {\n\t\t\tms, err = c.load(r)\n\t\t}\n" +
			"\t\tc.mu.Unlock()\n" +
			"\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n" +
			"\t\tgot[cr.at].Members = ms\n" +
			"\t}\n\treturn nil\n",
		Why:  "a window looks each cold record up again after its one hold and may serve a node from two states",
		Pkgs: []string{"./internal/store"},
	},

	// The daemon's answers.
	{
		ID:   "readyz-always-ok",
		File: "cmd/entityidd/server.go",
		Old:  "if status != \"ready\" {\n\t\tcode = http.StatusServiceUnavailable",
		New:  "if false {\n\t\tcode = http.StatusServiceUnavailable",
		Why:  "/readyz answers 200 while the hub is degraded, poisoned or draining",
		Pkgs: []string{"./cmd/entityidd"},
	},
	{
		ID:   "drain-admits",
		File: "cmd/entityidd/server.go",
		Old:  "if s.draining.Load() {\n\t\tw.Header().Set(\"Retry-After\", \"5\")\n\t\thttpError(w, http.StatusServiceUnavailable, errors.New(\"draining: ingest",
		New:  "if false && s.draining.Load() {\n\t\tw.Header().Set(\"Retry-After\", \"5\")\n\t\thttpError(w, http.StatusServiceUnavailable, errors.New(\"draining: ingest",
		Why:  "a draining daemon still takes inserts",
		Pkgs: []string{"./cmd/entityidd"},
	},
	{
		ID:   "body-cap-is-400",
		File: "cmd/entityidd/server.go",
		Old:  "return http.StatusRequestEntityTooLarge",
		New:  "return http.StatusBadRequest",
		Why:  "a request body past its size cap is answered 400, not 413",
		Pkgs: []string{"./cmd/entityidd"},
	},
	{
		ID:   "prop1-wrong-op",
		File: "internal/rules/rules.go",
		Old:  "Op: Ne, Right: Const(cons.Val)})",
		New:  "Op: Eq, Right: Const(cons.Val)})",
		Why:  "Proposition 1: the distinctness rule of an ILFD requires the consequent instead of its negation",
		Pkgs: []string{"./internal/rules"},
	},
	{
		ID:   "identical-by-length",
		File: "internal/value/value.go",
		Old:  "return a.s == b.s",
		New:  "return len(a.s) == len(b.s)",
		Why:  "two strings of one length are equal values",
		Pkgs: []string{"./internal/value"},
	},
	{
		ID:   "null-not-identical",
		File: "internal/value/value.go",
		Old:  "case KindNull:\n\t\treturn true",
		New:  "case KindNull:\n\t\treturn false",
		Why:  "storage equality: a NULL is not identical to a NULL, so duplicates and derivation conflicts go unseen",
		Pkgs: []string{"./internal/value"},
	},
	{
		ID:   "lost-segment-absorbed",
		File: "internal/wal/wal.go",
		Old:  "if i > 0 && first != l.seq+1 {",
		New:  "if false && i > 0 && first != l.seq+1 {",
		Why:  "recovery reads past a segment gap, losing committed records silently",
		Pkgs: []string{"./internal/wal"},
	},
}
