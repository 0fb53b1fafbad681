package forbid

// Rules is every refusal forbid holds, one entry per retired design.
var Rules = []Rule{{
	Scope:  Scope{Pkgs: []string{"entityid/internal/...", "entityid/cmd/..."}, Except: []string{"entityid/internal/obs"}},
	Shape:  Shape{Funcs: []string{"EncodeTuple", "DecodeTuple", "jsonToValue"}, Types: []string{"[]any", "[]interface{}"}},
	Reason: "a tuple has one serialised form (internal/relation/json.go): no second encoder or decoder, no []any re-typing of one",
	PR:     24,
}, {
	Scope:  Scope{Pkgs: []string{"entityid/internal/relation/...", "entityid/internal/match/...", "entityid/internal/ilfd/...", "entityid/internal/derive/..."}},
	Shape:  Shape{Holds: []string{"\x1c", "\x1d", "\x1e", "\x1f"}},
	Reason: "a key or an ILFD condition set is compared value by value: joined with a separator byte, two different ones become one",
	PR:     29,
}, {
	Scope:  Scope{Pkgs: []string{"entityid/internal/hub", "entityid/internal/store/..."}},
	Shape:  Shape{Types: []string{"map[entityid/internal/store.Node]*"}},
	Reason: "the hub folds clusters through one dense union-find and a store finds a node's record by position: a node-keyed map is a second, slower fold",
	PR:     32,
}, {
	Scope:  Scope{Pkgs: []string{"entityid/internal/match", "entityid/internal/hub"}},
	Shape:  Shape{Types: []string{"map[entityid/internal/match.Pair]*", "map[int][]int"}},
	Reason: "a matching table is a partial bijection over numbered tuples, dense int32 partner arrays: no pair set, no postings map",
	PR:     31,
}, {
	Scope:  Scope{Pkgs: []string{"entityid/internal/hub"}, Files: []string{"persist.go", "snapload.go"}},
	Shape:  Shape{Calls: []string{"(*entityid/internal/hub.Hub).Insert", "(*entityid/internal/hub.Hub).Link", "(*entityid/internal/hub.Hub).insertTraced"}},
	Reason: "recovery reads the log into the relations and builds each pair once: it does not replay through the commit path",
	PR:     33,
}, {
	Scope: Scope{Pkgs: []string{"entityid/internal/hub"}},
	Shape: Shape{Calls: []string{"(entityid/internal/store.Backend).Pairs", "(*entityid/internal/store/mem.Backend).Pairs",
		"(*entityid/internal/store/disk.Backend).Pairs", "(entityid/internal/store.Pairs).Save", "(entityid/internal/store.Pairs).Load"}},
	Reason: "a pair's matching result is resident for its life, since every insert is identified against every pair of its source: no pair tier",
	PR:     35,
}, {
	Scope:  Scope{Pkgs: []string{"entityid/internal/hub"}, Files: []string{"snapshot.go", "snapwriter.go"}},
	Shape:  Shape{Import: "entityid/internal/match", Holds: []string{`"mt"`}},
	Reason: "a snapshot stores the sources and nothing derived from them: a load rebuilds every matching table",
	PR:     37,
}, {
	Scope:  Scope{Pkgs: []string{"entityid/..."}},
	Shape:  Shape{Import: "entityid/internal/integrate"},
	Reason: "T_RS is laid out in one place, match.Result.Integrated",
	PR:     40,
}, {
	Scope:  Scope{Pkgs: []string{"entityid/..."}},
	Shape:  Shape{Import: "entityid/internal/federate"},
	Reason: "§3.2's insertion guard is one method beside Verify, match.Result.Identify: no second object per pair",
	PR:     43,
}, {
	Scope:  Scope{Pkgs: []string{"entityid/internal/resolve"}},
	Shape:  Shape{Funcs: []string{"Merge", "AutoSpecs"}},
	Reason: "T_RS is merged through resolve.Reduce: no r_/s_ column parser",
	PR:     40,
}, {
	Scope:  Scope{Pkgs: []string{"entityid/cmd/entityidd"}},
	Shape:  Shape{Links: "entityid/internal/datagen"},
	Reason: "the daemon does not link the synthetic-workload generator; what builds a hub from one is test code",
	PR:     16,
}, {
	Scope:  Scope{Pkgs: []string{"entityid/..."}},
	Shape:  Shape{Funcs: []string{"AppendInsert", "ParseInsert", "appendChunk", "addChunk", "seedTuples"}},
	Reason: "a run of one source's tuples has one record, in the log and in a snapshot, written by wal.AppendRun and read by wal.CutRun: no second N-tuple codec",
	PR:     48,
}, {
	Scope:  Scope{Pkgs: []string{"entityid/..."}, Except: []string{"entityid/internal/wal"}},
	Shape:  Shape{Calls: []string{"entityid/internal/relation.AppendTuplesJSON", "(*entityid/internal/relation.TupleBlocks).ParseTuplesJSON"}},
	Reason: "an array of tuples is written and read inside the run record's codec (internal/wal/run.go) alone",
	PR:     48,
}}
