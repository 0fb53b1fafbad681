package hub

// The deterministic simulator: a seed expands to a schedule — register
// sources, link pairs, insert one tuple, a batch, N concurrent streams
// beside readers, snapshot, inject a file-system fault, heal, close or
// kill and reopen (optionally over a damaged log) — which runs against a
// durable hub on the mem and the disk backend, and after every step
// every served surface is compared with the sequential reference model
// (model_test.go): accept/reject of each mutation and its §3.2 reason,
// each pair's matching table, the partition walked whole and by cursor,
// point reads by position and by key, merged views, Stats, and
// Hub.CheckInvariants. Two invariants need the previous step and live
// here: §3.3 monotonicity of every matching table, and "what a recovery
// serves is a committed prefix" (simRun.reopen over model.history). On the first failure
// the schedule is shrunk — any sub-sequence of a schedule is a schedule,
// the model decides every outcome — and printed in the notation below,
// which is Go: paste it into a test as a pinned schedule.
//
//	go test -run 'TestSim/seed=N' ./internal/hub/     replay one seed
//	go test -run TestSim -sim.seeds=1-10000 ./internal/hub/
//	go test -run TestSimBytes ./internal/hub/          same schedules, same bytes
//
// The named tests of the other files are pinned schedules: they build a
// schedule by hand, run it through runSchedule and assert what a
// schedule alone cannot say (a RecoveryInfo field, a file on disk).

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"entityid/internal/datagen"
	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/resolve"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/store"
	"entityid/internal/value"
	"entityid/internal/wal/errfs"
)

var (
	simSeeds  = flag.String("sim.seeds", "", "TestSim: seed range lo-hi to run instead of the default slice")
	simUpdate = flag.Bool("update", false, "TestSimBytes: rewrite testdata/simbytes.golden (format changes only)")
	// The store a test's durable hub opens on when the test does not
	// care (openOn), and the one backend the simulator is restricted to:
	// CI's squeezed-tier leg is -hub.store=disk -hub.hot-clusters=256.
	// Flags of this test binary, not product options.
	hubStore       = flag.String("hub.store", "", "backend of durable test hubs that name none, and the simulator's only one: mem or disk (default: mem, and the simulator runs both)")
	hubHotClusters = flag.Int("hub.hot-clusters", 0, "disk backend of such hubs: hot cluster-entry budget (0: the default)")
)

// openOn is Open on the store the -hub.* flags name, for tests that
// name none themselves.
func openOn(dir string, opts Options) (*Hub, *RecoveryInfo, error) {
	if opts.Store == "" && opts.Backend == nil {
		opts.Store, opts.HotClusterEntries = *hubStore, *hubHotClusters
	}
	return Open(dir, opts)
}

// quiesce simulates the tail end of a process death for crash-recovery
// tests: it waits out any in-flight background snapshot (a real crash
// kills that goroutine; in-process it must drain before the directory
// is reopened) and releases the directory lock the way the kernel
// releases a dead process's flock. The hub must not be used afterwards.
func (h *Hub) quiesce() {
	h.quiesceBackground()
	h.per.log.DropLock()
	// The spill tier is an ephemeral cache the next open wipes anyway;
	// closing it here just releases the dead hub's file handles.
	h.backend.Close()
}

// defaultSeeds is the slice every `go test` runs.
const defaultSeeds = 120

// ---------------------------------------------------------------------
// Workloads: the universe a schedule draws sources, links and tuples from
// ---------------------------------------------------------------------

// workSpec names a workload. Kind "multi" is datagen's K-source world
// (every pair linked on {name, cuisine} with the speciality→cuisine
// ILFDs), "rule" the same world linked by a name+phone identity rule
// instead of the ILFDs, "ring" four hand-made sources A–B–D–C–A, each
// link on its own attribute and A–B under a distinctness rule, filled
// from value domains small enough that every §3.2 guard fires, "hostile"
// the ring under two-column keys — each source's own, and A–B's extended
// key {name, cuisine} — over values that hold what a joined key would
// put between two columns, with A's cuisine a column of its own that an
// ILFD fills where A left it NULL — and "mixed" the multi world with
// every third link on the name+phone identity rule and the rest on the
// ILFDs as ever: some sides of a source agree on what fills them and
// share an image, some do not.
type workSpec struct {
	kind string
	cfg  datagen.MultiConfig // multi, rule, mixed; ring and hostile read Entities (tuples per source) and Seed
	// shuffle orders the items; mutants plants that many extra tuples —
	// an accepted tuple again under a fresh key (a second model of one
	// entity in one source) or verbatim (a candidate-key violation);
	// seeded moves that many leading items into their sources' seed
	// relations, registered with AddSource instead of inserted.
	shuffle int64
	mutants int
	seeded  int
}

func (ws workSpec) String() string {
	return fmt.Sprintf("workSpec{kind: %q, cfg: %#v, shuffle: %d, mutants: %d, seeded: %d}",
		ws.kind, ws.cfg, ws.shuffle, ws.mutants, ws.seeded)
}

type workload struct {
	names []string
	seeds []*relation.Relation
	links []PairSpec
	items []Insert
	truth *datagen.MultiWorkload // multi and rule: the planted ground truth
}

func (ws workSpec) build() *workload {
	w := &workload{}
	rng := rand.New(rand.NewSource(ws.shuffle))
	switch ws.kind {
	case "ring":
		ringWorkload(w, ws.cfg.Entities, rand.New(rand.NewSource(ws.cfg.Seed)))
	case "hostile":
		hostileWorkload(w, ws.cfg.Entities, rand.New(rand.NewSource(ws.cfg.Seed)))
	default:
		mw := datagen.MustMultiGenerate(ws.cfg)
		w.truth, w.names = mw, mw.Names
		for _, rel := range mw.Relations {
			w.seeds = append(w.seeds, relation.New(rel.Schema()))
		}
		for i := range mw.Names {
			for j := i + 1; j < len(mw.Names); j++ {
				spec := SpecFromMultiPair(mw.Pair(i, j))
				if ws.kind == "rule" || ws.kind == "mixed" && len(w.links)%3 == 1 {
					namePhone, err := rules.KeyEquivalence("name-phone", []string{"name", "phone"})
					if err != nil {
						panic(err)
					}
					spec.ILFDs, spec.Identity = nil, []rules.IdentityRule{namePhone}
				}
				w.links = append(w.links, spec)
			}
		}
		w.items = MultiInserts(mw)
	}
	rng.Shuffle(len(w.items), func(a, b int) { w.items[a], w.items[b] = w.items[b], w.items[a] })
	for n := 0; n < ws.mutants && len(w.items) > 0; n++ {
		src := w.items[rng.Intn(len(w.items))]
		mut := Insert{Source: src.Source, Tuple: src.Tuple.Clone()}
		if n%3 != 0 { // fresh key, same entity; every third stays verbatim
			key := 0
			if w.truth != nil {
				key = 1 // (name, loc): loc is the source-local half
			}
			mut.Tuple[key] = value.String(fmt.Sprintf("mutant-%d", n))
		}
		at := rng.Intn(len(w.items) + 1)
		w.items = append(w.items[:at], append([]Insert{mut}, w.items[at:]...)...)
	}
	seeded := 0
	for ; seeded < ws.seeded && seeded < len(w.items); seeded++ {
		it := w.items[seeded]
		for k, name := range w.names {
			if name == it.Source {
				_ = w.seeds[k].Insert(it.Tuple.Clone()) // a seed relation keeps what its own key admits
			}
		}
	}
	w.items = w.items[seeded:]
	return w
}

func ringWorkload(w *workload, perSource int, rng *rand.Rand) {
	cols := map[string][2]string{"A": {"name", "code"}, "B": {"name", "phone"}, "C": {"code", "city"}, "D": {"phone", "city"}}
	w.names = []string{"A", "B", "C", "D"}
	for _, name := range w.names {
		attrs := []schema.Attribute{{Name: "id", Kind: value.KindString}}
		for _, c := range cols[name] {
			attrs = append(attrs, schema.Attribute{Name: c, Kind: value.KindString})
		}
		w.seeds = append(w.seeds, relation.New(schema.MustNew(name, attrs, []string{"id"})))
	}
	link := func(left, right, shared string, distinct ...rules.DistinctnessRule) {
		w.links = append(w.links, PairSpec{
			Left: left, Right: right, ExtKey: []string{shared}, Distinct: distinct,
			Attrs: []match.AttrMap{{Name: shared, R: shared, S: shared}, {Name: "id_" + left, R: "id"}, {Name: "id_" + right, S: "id"}},
		})
	}
	link("A", "B", "name", rules.MustNewDistinctness("kx-px", []rules.Predicate{
		{Left: rules.Attr1("code"), Op: rules.Eq, Right: rules.Const(value.String("kx"))},
		{Left: rules.Attr2("phone"), Op: rules.Eq, Right: rules.Const(value.String("px"))},
	}))
	link("A", "C", "code")
	link("B", "D", "phone")
	link("C", "D", "city")
	// A domain the size of a source: most values pair up across a link
	// once, some twice (uniqueness), some never (singletons); a tenth are
	// NULL (undetermined) and a tenth feed the distinctness rule.
	val := func(attr string) value.Value {
		switch n := rng.Intn(10); {
		case n == 0:
			return value.Null
		case n == 1 && (attr == "code" || attr == "phone"):
			return value.String(map[string]string{"code": "kx", "phone": "px"}[attr])
		default:
			return value.String(fmt.Sprintf("%s%d", attr[:2], rng.Intn(perSource)))
		}
	}
	for _, name := range w.names {
		for i := 0; i < perSource; i++ {
			id := fmt.Sprintf("%s%d", strings.ToLower(name), i)
			w.items = append(w.items, Insert{Source: name, Tuple: relation.Tuple{value.String(id), val(cols[name][0]), val(cols[name][1])}})
		}
	}
}

// joinedSep is what a key projection joined into one string would put
// between two string columns; a value that holds it moves the boundary.
const joinedSep = "\x1fs:"

// hostileWorkload is the ring under keys of two columns over values that
// a joined key string cannot tell apart — ("x\x1fs:y", "x") and
// ("x", "y\x1fs:x") are two keys, one string — beside the empty string,
// NUL and a kind prefix. Every source's key is (id, sub), drawn so that
// consecutive tuples are such a pair; A–B's extended key is
// {name, cuisine}; and A models cuisine itself, NULL half the time, where
// an ILFD on its speciality fills it: an extended image that differs
// from its source tuple inside the source's own arity.
func hostileWorkload(w *workload, perSource int, rng *rand.Rand) {
	cols := map[string][]string{"A": {"name", "code", "speciality", "cuisine"}, "B": {"name", "phone", "cuisine"}, "C": {"code", "city"}, "D": {"phone", "city"}}
	w.names = []string{"A", "B", "C", "D"}
	for _, name := range w.names {
		attrs := []schema.Attribute{{Name: "id", Kind: value.KindString}, {Name: "sub", Kind: value.KindString}}
		for _, c := range cols[name] {
			attrs = append(attrs, schema.Attribute{Name: c, Kind: value.KindString})
		}
		w.seeds = append(w.seeds, relation.New(schema.MustNew(name, attrs, []string{"id", "sub"})))
	}
	link := func(left, right string, spec PairSpec, shared ...string) {
		spec.Left, spec.Right, spec.ExtKey = left, right, shared
		for _, a := range shared {
			spec.Attrs = append(spec.Attrs, match.AttrMap{Name: a, R: a, S: a})
		}
		for _, k := range []string{"id", "sub"} {
			spec.Attrs = append(spec.Attrs, match.AttrMap{Name: k + "_" + left, R: k}, match.AttrMap{Name: k + "_" + right, S: k})
		}
		w.links = append(w.links, spec)
	}
	str := func(s string) value.Value { return value.String(s) }
	link("A", "B", PairSpec{
		Attrs: []match.AttrMap{{Name: "speciality", R: "speciality"}},
		ILFDs: ilfd.Set{
			ilfd.MustNew(ilfd.Conditions{{Attr: "speciality", Val: str("hunan")}}, ilfd.Conditions{{Attr: "cuisine", Val: str("x")}}),
			ilfd.MustNew(ilfd.Conditions{{Attr: "speciality", Val: str("h" + joinedSep)}}, ilfd.Conditions{{Attr: "cuisine", Val: str("x" + joinedSep + "y")}}),
		},
		Distinct: []rules.DistinctnessRule{rules.MustNewDistinctness("kx-px", []rules.Predicate{
			{Left: rules.Attr1("code"), Op: rules.Eq, Right: rules.Const(str("kx"))},
			{Left: rules.Attr2("phone"), Op: rules.Eq, Right: rules.Const(str("px"))},
		})},
	}, "name", "cuisine")
	link("A", "C", PairSpec{}, "code")
	link("B", "D", PairSpec{}, "phone")
	link("C", "D", PairSpec{}, "city")
	// One domain for every attribute: the size of a source, so most values
	// pair up across a link once, and closed under moving the boundary —
	// ("x␟y", "x") and ("x", "y␟x"), ("", "␟") and ("␟", "") join to one
	// string each, as does every (p␟q, r) with (p, q␟r) further down.
	pieces := []string{"x", "y", "", "\x00", "i:1", "z"}
	domain := []string{"x", "x" + joinedSep + "y", "y", "y" + joinedSep + "x", "", joinedSep, "\x00", "i:1"}
	for _, p := range pieces {
		for _, q := range pieces {
			if v := p + joinedSep + q; !slices.Contains(domain, v) {
				domain = append(domain, v)
			}
		}
	}
	domain = domain[:min(len(domain), max(8, perSource))]
	val := func(source, attr string) value.Value {
		switch n := rng.Intn(10); {
		case n == 0:
			return value.Null
		case n == 1 && (attr == "code" || attr == "phone"):
			return str(map[string]string{"code": "kx", "phone": "px"}[attr])
		case attr == "speciality":
			return str([]string{"hunan", "h" + joinedSep, "x"}[rng.Intn(3)])
		case attr == "cuisine" && source == "A" && n < 6:
			return value.Null // for the ILFDs to fill
		case attr == "cuisine":
			return str(domain[rng.Intn(3)]) // what they fill it with, and one more
		case attr == "name":
			return str(domain[rng.Intn(8)]) // half of a two-column key: few, so that pairs agree on both
		default:
			return str(domain[rng.Intn(len(domain))])
		}
	}
	for _, name := range w.names {
		for i := 0; i < perSource; i++ {
			// Tuples 2k and 2k+1 of a source: one joined key string, two keys.
			base := fmt.Sprintf("%s%d", strings.ToLower(name), i/2)
			tup := relation.Tuple{str(base + joinedSep + "q"), str("r")}
			if i%2 == 1 {
				tup = relation.Tuple{str(base), str("q" + joinedSep + "r")}
			}
			for _, c := range cols[name] {
				tup = append(tup, val(name, c))
			}
			w.items = append(w.items, Insert{Source: name, Tuple: tup})
		}
	}
}

// ---------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------

type opKind int

const (
	opSource opKind = iota
	opLink
	opInsert
	opBatch
	opStreams
	opSnapshot
	opFault
	opHeal
	opReopen
)

// How an opReopen ends the running hub and what it does to the log
// before the next Open.
const (
	reopenClose     = iota // Close, Open
	reopenKill             // quiesce (process death), Open
	reopenPowerLoss        // kill; everything past the last fsync vanishes
	reopenTruncate         // kill; the active segment is cut at byte `at`
	reopenBitFlip          // kill; one bit of the active segment flips
	reopenLoseHead         // kill; the active segment loses its first records (a partial restore)
)

type op struct {
	kind opKind
	n    int // source, link or item ordinal; reopen: how
	at   int // reopen: where the damage lands (taken modulo what is there)
	// items: opBatch. streams: opStreams, one item list per stream, with
	// the channel window, the acks after which stream 0's context is
	// cancelled (0: never; -1: instead, its consumer reads nothing until
	// every other stream has ended) and the readers racing the streams.
	items                     []int
	streams                   [][]int
	window, cancelAt, readers int
	rule                      errfs.Rule
}

func src(n int) op          { return op{kind: opSource, n: n} }
func link(n int) op         { return op{kind: opLink, n: n} }
func ins(n int) op          { return op{kind: opInsert, n: n} }
func batch(n ...int) op     { return op{kind: opBatch, items: n} }
func snap() op              { return op{kind: opSnapshot} }
func heal() op              { return op{kind: opHeal} }
func reopen(how int) op     { return op{kind: opReopen, n: how} }
func damage(how, at int) op { return op{kind: opReopen, n: how, at: at} }
func streams(window, cancelAt, readers int, parts ...[]int) op {
	return op{kind: opStreams, window: window, cancelAt: cancelAt, readers: readers, streams: parts}
}
func fault(o errfs.Op, path string, after, count int, err syscall.Errno, partial int, stall time.Duration) op {
	r := errfs.Rule{Op: o, PathContains: path, After: after, Count: count, Partial: partial, Stall: stall}
	if err != 0 {
		r.Err = err
	}
	return op{kind: opFault, rule: r}
}

// span is lo, …, hi-1: item ordinals for a batch or a stream.
func span(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// seq is ins(lo), …, ins(hi-1).
func seq(lo, hi int) []op {
	var out []op
	for _, i := range span(lo, hi) {
		out = append(out, ins(i))
	}
	return out
}

func (o op) String() string {
	ints := func(ns []int) string { return strings.Trim(strings.ReplaceAll(fmt.Sprint(ns), " ", ", "), "[]") }
	switch o.kind {
	case opSource:
		return fmt.Sprintf("src(%d)", o.n)
	case opLink:
		return fmt.Sprintf("link(%d)", o.n)
	case opInsert:
		return fmt.Sprintf("ins(%d)", o.n)
	case opBatch:
		return fmt.Sprintf("batch(%s)", ints(o.items))
	case opStreams:
		parts := make([]string, len(o.streams))
		for i, p := range o.streams {
			parts[i] = "[]int{" + ints(p) + "}"
		}
		return fmt.Sprintf("streams(%d, %d, %d, %s)", o.window, o.cancelAt, o.readers, strings.Join(parts, ", "))
	case opSnapshot:
		return "snap()"
	case opFault:
		errno, _ := o.rule.Err.(syscall.Errno)
		return fmt.Sprintf("fault(%q, %q, %d, %d, syscall.Errno(%d), %d, %d)",
			o.rule.Op, o.rule.PathContains, o.rule.After, o.rule.Count, errno, o.rule.Partial, o.rule.Stall)
	case opHeal:
		return "heal()"
	default:
		return fmt.Sprintf("damage(%d, %d)", o.n, o.at)
	}
}

// simOpts are the Options a schedule opens its hub under.
type simOpts struct {
	snapEvery, syncEvery, chunkBytes int
	hotClusters                      int // the disk backend's budget
	// runItems is the item count the snapshot writer seals a segment at
	// (0: snapSegItems, which no simulated workload reaches — nothing
	// ever seals).
	runItems int
}

type schedule struct {
	work workSpec
	opts simOpts
	ops  []op
}

func (s schedule) String() string {
	lines := make([]string, len(s.ops))
	for i, o := range s.ops {
		lines[i] = "\t" + o.String() + ","
	}
	return fmt.Sprintf("schedule{work: %v,\n opts: %s, ops: []op{\n%s\n}}", s.work,
		strings.TrimPrefix(fmt.Sprintf("%#v", s.opts), "hub."), strings.Join(lines, "\n"))
}

// setup registers every source and every link of w, in order.
func setup(w *workload) []op {
	var ops []op
	for i := range w.names {
		ops = append(ops, src(i))
	}
	for i := range w.links {
		ops = append(ops, link(i))
	}
	return ops
}

// genSchedule expands a seed.
func genSchedule(seed int64) schedule {
	rng := rand.New(rand.NewSource(seed))
	pick := func(ns ...int) int { return ns[rng.Intn(len(ns))] }
	s := schedule{opts: simOpts{
		snapEvery: pick(0, 0, 3, 5, 9), syncEvery: pick(0, 0, 1, 4), chunkBytes: pick(0, 0, 200, 1<<10),
		hotClusters: 4 + rng.Intn(24),
		runItems:    []int{0, 2, 3, 8}[seed&3], // off the seed, not the stream: the draws below stay where they were
	}}
	rng.Intn(2) // what was the pair budget's draw: every draw below stays where it was
	s.work = workSpec{shuffle: seed, mutants: rng.Intn(5), seeded: pick(0, 0, 3, 12)}
	switch rng.Intn(5) {
	case 0, 1:
		s.work.kind, s.work.cfg = "ring", datagen.MultiConfig{Entities: 5 + rng.Intn(12), Seed: seed}
		if seed%3 == 0 { // off the seed, not the stream: every other seed's schedule stays what it was
			s.work.kind = "hostile"
		}
	default:
		s.work.kind = "multi"
		if rng.Intn(3) == 0 {
			s.work.kind = "rule"
		} else if seed%4 == 1 { // off the seed, as hostile is
			s.work.kind = "mixed"
		}
		s.work.cfg = datagen.MultiConfig{
			Sources: pick(1, 2, 3, 3, 4), Entities: pick(0, 6, 12, 18, 24), PresenceFrac: 0.4 + 0.5*rng.Float64(),
			HomonymRate: 0.25, MissingPhone: 0.1, DirtyPhone: 0.2, Seed: seed,
		}
	}
	w := s.work.build()

	// Mutations in a random order that leans sources first, links next.
	type keyed struct {
		op
		key float64
	}
	var ks []keyed
	for i := range w.names {
		ks = append(ks, keyed{src(i), 0.15 * rng.Float64()})
	}
	for i := range w.links {
		ks = append(ks, keyed{link(i), 0.05 + 0.45*rng.Float64()})
	}
	for i := range w.items {
		ks = append(ks, keyed{ins(i), rng.Float64()})
	}
	sort.SliceStable(ks, func(a, b int) bool { return ks[a].key < ks[b].key })

	// Runs of inserts become batches, or — in a concurrent schedule —
	// streams; a sequential schedule may damage the log instead.
	concurrent := rng.Intn(5) < 2
	for i := 0; i < len(ks); {
		run := 0
		for i+run < len(ks) && ks[i+run].kind == opInsert {
			run++
		}
		if take := 2 + rng.Intn(12); run >= 2 && rng.Intn(3) == 0 {
			take = min(take, run)
			items := make([]int, take)
			for k := range items {
				items[k] = ks[i+k].n
			}
			if concurrent {
				parts := make([][]int, 1+rng.Intn(min(3, take)))
				for k, it := range items {
					parts[k%len(parts)] = append(parts[k%len(parts)], it)
				}
				s.ops = append(s.ops, streams(pick(1, 2, 64), pick(0, 0, -1, 1+len(parts[0])/2), pick(0, 1, 2), parts...))
			} else {
				s.ops = append(s.ops, batch(items...))
			}
			i += take
		} else {
			s.ops = append(s.ops, ks[i].op)
			i++
		}
		if rng.Intn(6) == 0 {
			s.ops = append(s.ops, genControl(rng, concurrent)...)
		}
	}
	s.ops = append(s.ops, heal(), reopen(reopenKill))
	return s
}

// with is s over other ops.
func (s schedule) with(ops []op) schedule { s.ops = ops; return s }

// genControl draws one of the non-mutating steps.
func genControl(rng *rand.Rand, concurrent bool) []op {
	switch n := rng.Intn(10); {
	case n < 2:
		// Half the time the hub restarts on what it just wrote: its sources
		// come back from their runs and its tables rebuilt over them, and
		// the inserts that follow continue the runs later snapshots seal.
		if rng.Intn(2) == 0 {
			return []op{snap(), reopen(reopenClose)}
		}
		return []op{snap()}
	case n < 5:
		how := reopenClose + rng.Intn(2)
		if !concurrent && rng.Intn(3) > 0 {
			how = reopenPowerLoss + rng.Intn(4)
		}
		return []op{damage(how, rng.Intn(1<<16))}
	case n < 6: // a slow disk under the snapshot writer: later commits overtake its capture
		return []op{fault(errfs.OpSync, "wal-", 0, 4, 0, 0, 2*time.Millisecond)}
	case n < 9:
		ops := []errfs.Op{errfs.OpWrite, errfs.OpWrite, errfs.OpSync, errfs.OpOpenFile, errfs.OpCreateTemp,
			errfs.OpRename, errfs.OpTruncate, errfs.OpRemove, errfs.OpClose, errfs.OpMkdirAll, errfs.OpStat, errfs.OpOpen}
		paths := []string{"wal-", "wal-", "snapsecs", "snapshot.manifest", ""}
		f := fault(ops[rng.Intn(len(ops))], paths[rng.Intn(len(paths))], rng.Intn(6), rng.Intn(3),
			[]syscall.Errno{syscall.ENOSPC, syscall.EIO}[rng.Intn(2)], 0, 0)
		if f.rule.Op == errfs.OpWrite && rng.Intn(2) == 0 {
			f.rule.Partial = 1 + rng.Intn(40)
		}
		return []op{f}
	default:
		return []op{heal()}
	}
}

// ---------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------

// errUnavailable classes a hub answer that says nothing about the
// mutation: the hub was degraded (or the append that degraded it).
var errUnavailable = errors.New("hub unavailable")

// classOf maps a hub error onto the model's reasons, by type only. The
// §3.2 guards and the unavailable hub have sentinels; a tuple's or a
// registration's refusal has none, so what is left is refusal — the
// caller's errModelTuple or errModelTopology — unless it carries an OS
// error: an I/O failure the hub did not answer by degrading is no
// refusal, and classed as itself it equals no reason of the model.
func classOf(err, refusal error) error {
	var errno syscall.Errno
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrDegraded), errors.Is(err, ErrPoisoned):
		return errUnavailable
	case errors.Is(err, store.ErrUniqueness):
		return errModelTransitive
	case errors.Is(err, match.ErrConsistency):
		return errModelConsistent
	case errors.Is(err, match.ErrUniqueness):
		return errModelUnique
	case errors.As(err, &errno):
		return err
	default:
		return refusal
	}
}

// simRun is one schedule running against one hub.
type simRun struct {
	s       schedule
	w       *workload
	backend string
	dir     string
	fs      *errfs.FS
	h       *Hub
	m       *model
	// infos holds every Open's RecoveryInfo, errs the hub's answer to
	// every step (of several, the first error) and health its Health just
	// after, for the pinned schedules' own assertions; answer collects the
	// running step's.
	infos  []*RecoveryInfo
	errs   []error
	health []Health
	answer error
	// prev is every pair's matching table at the last check (§3.3).
	prev map[string][]match.Pair
	// faulted: a rule has been armed since the last Open, so a
	// background failure may surface at Close.
	faulted bool
	// sampled counts the member sets readers saw beside streams.
	sampled int
	// files collects sha256 by path when set (TestSimBytes).
	files map[string]string
}

func (r *simRun) options() Options {
	o := r.s.opts
	return Options{
		SnapshotEvery: o.snapEvery, SyncEvery: o.syncEvery, chunkBytes: o.chunkBytes, FS: r.fs,
		probeBackoff: time.Millisecond, probeBackoffMax: 8 * time.Millisecond,
		Store: r.backend, HotClusterEntries: max(o.hotClusters, 1),
	}
}

func (r *simRun) open() error {
	h, info, err := Open(r.dir, r.options())
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	r.h, r.infos, r.faulted = h, append(r.infos, info), false
	sealAt(h, r.s.opts.runItems)
	return nil
}

// runOn runs s on one backend in dir and returns the run — hub open,
// for the caller to assert on and close — and the first failure.
func runOn(s schedule, backend, dir string, files map[string]string) (*simRun, error) {
	r := &simRun{s: s, w: s.work.build(), backend: backend, dir: dir, fs: errfs.New(nil), m: &model{}, files: files}
	if err := r.open(); err != nil {
		return r, err
	}
	for i, o := range s.ops {
		r.answer = nil
		err := r.step(o)
		r.errs, r.health = append(r.errs, r.answer), append(r.health, r.h.Health())
		if err == nil {
			err = r.check(o.kind == opReopen || i == len(s.ops)-1)
		}
		if err != nil {
			return r, fmt.Errorf("step %d %v: %w", i, o, err)
		}
		r.hashFiles()
	}
	return r, nil
}

// mutate holds one mutation's outcome to the model's.
func (r *simRun) mutate(what string, hubErr, refusal error, apply func() error) error {
	if r.answer == nil {
		r.answer = hubErr
	}
	got := classOf(hubErr, refusal)
	if got == errUnavailable {
		return nil // nothing was applied; check() holds the hub to the unchanged model
	}
	if want := apply(); want != got {
		return fmt.Errorf("%s: hub answered %v (%v), §3–4 says %v", what, hubErr, got, want)
	}
	return nil
}

// insertItem holds one insert's outcome to the model's, and an
// accepted one's receipt to the model's state just after it.
func (r *simRun) insertItem(it Insert, rec *Receipt, hubErr error) error {
	err := r.mutate(fmt.Sprintf("insert %s %v", it.Source, it.Tuple), hubErr, errModelTuple, func() error { return r.m.insert(it.Source, it.Tuple) })
	if err != nil || hubErr != nil {
		return err
	}
	si := r.m.source(it.Source)
	at := modelNode{si, r.m.rels[si].Len() - 1}
	var matched []Member
	for _, l := range r.m.links {
		for p := range l.res.MT.All() {
			switch {
			case l.li == si && p.RIndex == at[1]:
				matched = append(matched, MemberOf(r.m.names[l.ri], p.SIndex, r.m.rels[l.ri].Tuple(p.SIndex)))
			case l.ri == si && p.SIndex == at[1]:
				matched = append(matched, MemberOf(r.m.names[l.li], p.RIndex, r.m.rels[l.li].Tuple(p.RIndex)))
			}
		}
	}
	for _, c := range r.m.clusters() {
		for _, mem := range c.Members {
			if mem.Source == it.Source && mem.Index == at[1] {
				if got, want := plainReceiptOf(rec), plainReceiptOf(&Receipt{Source: it.Source, Index: at[1], Matched: matched, Cluster: c}); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("insert %s %v: receipt %+v, model %+v", it.Source, it.Tuple, *got, *want)
				}
			}
		}
	}
	return nil
}

// item is the n-th tuple of the workload.
func (r *simRun) item(n int) Insert {
	return Insert{Source: r.w.items[n].Source, Tuple: r.w.items[n].Tuple.Clone()}
}

func (r *simRun) step(o op) error {
	switch o.kind {
	case opSource:
		name, seed := r.w.names[o.n], r.w.seeds[o.n]
		return r.mutate("add source "+name, r.h.AddSource(name, seed.Clone()), errModelTopology, func() error { return r.m.addSource(name, seed) })
	case opLink:
		spec := r.w.links[o.n]
		return r.mutate(fmt.Sprintf("link %s-%s", spec.Left, spec.Right), r.h.Link(spec), errModelTopology, func() error { return r.m.link(spec) })
	case opInsert:
		it := r.item(o.n)
		rec, err := r.h.Insert(it.Source, it.Tuple)
		return r.insertItem(it, rec, err)
	case opBatch:
		items := make([]Insert, len(o.items))
		for i, n := range o.items {
			items[i] = r.item(n)
		}
		for i, res := range r.h.IngestBatch(items) { // commits in input order: so does the model
			if err := r.insertItem(items[i], res.Receipt, res.Err); err != nil {
				return err
			}
		}
		return nil
	case opStreams:
		return r.streams(o)
	case opSnapshot:
		err := r.h.SnapshotNow()
		r.answer = err
		if err != nil && !r.faulted && r.h.Health().State == StateReady {
			return fmt.Errorf("snapshot on a healthy disk: %w", err)
		}
		return nil
	case opFault:
		r.fs.Inject(o.rule)
		r.faulted = true
		return nil
	case opHeal:
		return r.heal()
	default:
		return r.reopen(o)
	}
}

// heal clears every rule and waits out the degraded episode.
func (r *simRun) heal() error {
	r.fs.Clear()
	deadline := time.Now().Add(10 * time.Second)
	for r.h.Health().State != StateReady {
		if st := r.h.Health(); st.State == StatePoisoned || time.Now().After(deadline) {
			return fmt.Errorf("hub did not heal: %+v", st)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (r *simRun) reopen(o op) error {
	var syncedSeq uint64
	var syncedOff int64
	if o.n == reopenClose {
		r.fs.Clear() // an operator restarts a hub on a disk that works
		if err := r.h.Close(); err != nil && !r.faulted {
			return fmt.Errorf("close: %w", err)
		}
	} else {
		r.h.quiesce()
		syncedSeq, syncedOff = r.h.per.log.Synced()
		r.fs.Clear() // the process died with its disk's troubles; the next one starts clean
	}
	lossy, torn := o.n >= reopenPowerLoss, r.faulted // a torn append the dead hub could not roll back is tail damage too
	if lossy {
		if err := damageLog(r.dir, o.n, o.at, syncedOff); err != nil {
			return err
		}
	}
	if err := r.open(); err != nil {
		return err
	}
	info := r.infos[len(r.infos)-1]
	if !lossy {
		if info.TailDamage != "" && !torn {
			return fmt.Errorf("recovery over an undamaged log reports tail damage: %s", info.TailDamage)
		}
		return nil
	}
	if o.n == reopenPowerLoss && info.LastSeq < syncedSeq {
		return fmt.Errorf("recovered through record %d, but %d was fsynced", info.LastSeq, syncedSeq)
	}
	// What survived must be a committed prefix: the one state of the
	// history with this many sources, links and tuples (every mutation
	// adds one of them). check holds the hub to the rest of it.
	st, m := r.h.Stats(), &model{}
	for k := 0; ; k++ {
		tuples := 0
		for _, rel := range m.rels {
			tuples += rel.Len()
		}
		if len(m.names) == st.Sources && len(m.links) == st.Pairs && tuples == st.Tuples {
			r.m, r.prev = m, nil // monotonicity restarts from what survived
			return nil
		}
		if k == len(r.m.history) {
			return fmt.Errorf("recovered state %+v is no prefix of the %d committed mutations", st, k)
		}
		if err := r.m.history[k](m); err != nil {
			return fmt.Errorf("model: replaying an accepted mutation: %w", err)
		}
	}
}

// damageLog does to the newest log segment what a crash model allows.
func damageLog(dir string, how, at int, syncedOff int64) error {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	sort.Strings(segs)
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		return err
	}
	switch {
	case how == reopenPowerLoss:
		data = data[:min(int64(len(data)), syncedOff)]
	case len(data) == 0:
	case how == reopenTruncate:
		data = data[:at%(len(data)+1)]
	case how == reopenBitFlip:
		data[at%len(data)] ^= 1 << (at % 7)
	default: // what is left starts past the segment's name: a jump at its first record
		for n := 1 + at%3; n > 0 && len(data) > 0; n-- {
			data = data[strings.IndexByte(string(data), '\n')+1:]
		}
	}
	return os.WriteFile(seg, data, 0o644)
}

// streams runs the op's streams concurrently beside its readers, then
// lets the model adopt what the hub committed — per source in the order
// the hub serves it, which any order of a sound set satisfies (a subset
// of a sound state is sound) — and holds every result to that state.
func (r *simRun) streams(o op) error {
	h := r.h
	before := make([]int, len(r.m.names))
	for i, rel := range r.m.rels {
		before[i] = rel.Len()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	items := make([][]Insert, len(o.streams))
	results := make([][]StreamResult, len(o.streams))
	var stalled error
	var wg, others sync.WaitGroup
	others.Add(max(len(o.streams)-1, 0))
	for k, part := range o.streams {
		for _, n := range part {
			items[k] = append(items[k], r.item(n))
		}
		sctx := context.Background()
		if k == 0 && o.cancelAt > 0 {
			sctx = ctx
		}
		in := make(chan Insert)
		out := h.IngestStream(sctx, in, StreamOptions{Window: o.window})
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(in)
			for _, it := range items[k] {
				select {
				case in <- it:
				case <-sctx.Done():
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			if k > 0 {
				defer others.Done()
			} else if o.cancelAt < 0 {
				// A consumer that reads nothing stalls its own stream, at
				// 2×window commits (window results buffered, one in hand,
				// window encoded behind it), and nobody else's.
				others.Wait()
				ahead := h.Stats().Tuples
				for _, n := range before {
					ahead -= n
				}
				for _, part := range results[1:] {
					for _, res := range part {
						if res.Err == nil {
							ahead--
						}
					}
				}
				if o.window > 0 && ahead > 2*o.window {
					stalled = fmt.Errorf("the stream nobody reads committed %d items, want at most 2×window = %d", ahead, 2*o.window)
				}
			}
			for res := range out {
				results[k] = append(results[k], res)
				if k == 0 && len(results[k]) == o.cancelAt {
					cancel()
				}
			}
		}()
	}
	stop := make(chan struct{})
	samples := make([][][]string, o.readers)
	readErrs := make([]error, o.readers)
	var rwg sync.WaitGroup
	for k := 0; k < o.readers; k++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			samples[k], readErrs[k] = readWhileIngesting(h, int64(k), stop)
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	for _, err := range append(readErrs, stalled) {
		if err != nil {
			return err
		}
	}

	submitted, committed := map[string]int{}, map[string]bool{}
	for _, part := range items {
		for _, it := range part {
			submitted[it.Source+"|"+it.Tuple.Key()]++
		}
	}
	// Adopt: what each source serves past its old length, in that order.
	for si, name := range r.m.names {
		n, err := h.SourceLen(name)
		if err != nil {
			return err
		}
		for i := before[si]; i < n; i++ {
			c, err := h.ClusterAt(name, i)
			if err != nil {
				return err
			}
			for _, mem := range c.Members {
				if mem.Source != name || mem.Index != i {
					continue
				}
				key := name + "|" + mem.Tuple().Key()
				if submitted[key] == 0 {
					return fmt.Errorf("hub committed %s %v, which no stream submitted", name, mem.Tuple())
				}
				committed[key] = true
				if err := r.m.insert(name, mem.Tuple()); err != nil {
					return fmt.Errorf("hub committed %s %v: %w", name, mem.Tuple(), err)
				}
			}
		}
	}
	keyOf := func(it Insert) string { return it.Source + "|" + it.Tuple.Key() }
	acked, faulted := map[string]bool{}, r.faulted
	for k, part := range results {
		if cancelled := k == 0 && o.cancelAt > 0; !cancelled && len(part) != len(items[k]) {
			return fmt.Errorf("stream %d: %d results for %d items", k, len(part), len(items[k]))
		}
		for i, res := range part {
			it := items[k][i]
			if r.answer == nil {
				r.answer = res.Err
			}
			switch class := classOf(res.Err, errModelTuple); {
			case res.Seq != i:
				return fmt.Errorf("stream %d: result %d carries seq %d", k, i, res.Seq)
			case class == nil && !committed[keyOf(it)]:
				return fmt.Errorf("stream %d: acknowledged insert %d (%s %v) is not served", k, i, it.Source, it.Tuple)
			case class == nil:
				acked[keyOf(it)] = true
			case class == errUnavailable:
				faulted = true
			case !r.m.refuses(it): // against the final state: refusal only grows with the state
				return fmt.Errorf("stream %d: hub refused insert %d (%s %v: %v), §3–4 accepts it", k, i, it.Source, it.Tuple, res.Err)
			}
		}
	}
	// Committed without a delivered result: only past stream 0's
	// cancellation. And on a healthy disk what a stream committed is a
	// prefix of what it submitted, less what §3–4 refuses (a tuple
	// submitted twice says nothing about which submission committed).
	for k, part := range items {
		last := -1
		for i, it := range part {
			if key := keyOf(it); committed[key] && submitted[key] == 1 {
				last = i
			}
			if key := keyOf(it); committed[key] && !acked[key] && (k != 0 || o.cancelAt <= 0) && submitted[key] == 1 {
				return fmt.Errorf("stream %d: insert %d committed without an acknowledgement", k, i)
			}
		}
		for i, it := range part[:last+1] {
			if !faulted && !committed[keyOf(it)] && !r.m.refuses(it) {
				return fmt.Errorf("stream %d: insert %d skipped, a later one of the stream committed", k, i)
			}
		}
	}
	// What the readers saw mid-stream were committed states of a
	// partition that only merges: each inside one final cluster.
	home := map[string]string{}
	for _, c := range r.m.clusters() {
		for _, mem := range c.Members {
			home[mem.Source+"|"+mem.Tuple().Key()] = c.ID
		}
	}
	for _, rs := range samples {
		r.sampled += len(rs)
		for _, keys := range rs {
			for _, k := range keys {
				if home[k] == "" || home[k] != home[keys[0]] {
					return fmt.Errorf("a reader saw cluster %v, which is inside no final cluster", keys)
				}
			}
		}
	}
	return nil
}

// shapeOf holds one served cluster to what every read must satisfy
// whatever is being committed beside it.
func shapeOf(c Cluster, ordinal map[string]int) error {
	if len(c.Members) == 0 || c.ID != fmt.Sprintf("%s/%d", c.Members[0].Source, c.Members[0].Index) {
		return fmt.Errorf("cluster %q does not lead with its first member: %v", c.ID, c.Members)
	}
	for i, m := range c.Members[1:] {
		p := c.Members[i]
		if ordinal[p.Source] >= ordinal[m.Source] { // strictly ascending sources: sorted, and one tuple per source
			return fmt.Errorf("cluster %s: members %s/%d, %s/%d out of order or of one source", c.ID, p.Source, p.Index, m.Source, m.Index)
		}
	}
	return nil
}

// readWhileIngesting point-reads, walks and takes Stats until stop
// closes, holding each answer to shapeOf, each walk's clusters to
// pairwise disjoint and each Stats to the one before it; it returns a
// sample of the member sets it saw.
func readWhileIngesting(h *Hub, seed int64, stop <-chan struct{}) (samples [][]string, err error) {
	rng := rand.New(rand.NewSource(seed))
	names := h.SourceNames()
	ordinal := map[string]int{}
	for i, n := range names {
		ordinal[n] = i
	}
	fromWalks := 0
	var last Stats
	for i := 0; len(names) > 0; i++ {
		select {
		case <-stop:
			return samples, nil
		default:
		}
		if i%16 == 0 {
			// Stats takes the commit lock between live commits. Views and
			// matching tables only grow (§3.3), so neither count falls
			// between one reader's calls, and no cluster is empty.
			st := h.Stats()
			if st.Tuples < last.Tuples || st.Matches < last.Matches || st.Clusters < 0 || st.Clusters > st.Tuples {
				return nil, fmt.Errorf("Stats beside ingest: %+v after %+v", st, last)
			}
			last = st
		}
		name := names[rng.Intn(len(names))]
		n, _ := h.SourceLen(name)
		if n == 0 {
			continue
		}
		idx := rng.Intn(n)
		c, err := h.ClusterAt(name, idx)
		if err == nil {
			err = shapeOf(c, ordinal)
		}
		if err != nil {
			return nil, fmt.Errorf("ClusterAt(%s, %d) beside ingest: %w", name, idx, err)
		}
		var keys []string
		found := false
		for _, m := range c.Members {
			keys = append(keys, m.Source+"|"+m.Tuple().Key())
			found = found || (m.Source == name && m.Index == idx)
		}
		if !found {
			return nil, fmt.Errorf("cluster %s of %s/%d does not hold it", c.ID, name, idx)
		}
		if len(samples)-fromWalks < 256 {
			samples = append(samples, keys)
		}
		if i%16 == 0 {
			// One pass's clusters are pairwise disjoint; the merged ones
			// join the sample the caller holds to the final partition.
			seen := map[string]string{}
			werr := h.ClustersWalk("", 0, func(c Cluster, _ string) bool {
				if err = shapeOf(c, ordinal); err != nil {
					return false
				}
				var keys []string
				for _, m := range c.Members {
					k := m.Source + "/" + strconv.Itoa(m.Index)
					if prev, dup := seen[k]; dup {
						err = fmt.Errorf("one walk served %s in clusters %s and %s", k, prev, c.ID)
						return false
					}
					seen[k] = c.ID
					keys = append(keys, m.Source+"|"+m.Tuple().Key())
				}
				if len(keys) > 1 && fromWalks < 256 {
					samples, fromWalks = append(samples, keys), fromWalks+1
				}
				return true
			})
			if werr != nil || err != nil {
				return nil, errors.Join(werr, err)
			}
		}
	}
	<-stop
	return nil, nil
}

// walkPages enumerates the hub limit clusters at a time (limit <= 0: in
// one pass), resuming each page at the cursor the last one handed out.
// It keeps every cluster, so it copies each out of the walk's buffers.
func walkPages(h *Hub, limit int) ([]plainCluster, error) {
	var out []plainCluster
	for cursor := ""; ; {
		n, resume := 0, ""
		err := h.ClustersWalk(cursor, 0, func(c Cluster, next string) bool {
			out, resume, n = append(out, plainOf(c)...), next, n+1
			return n != limit
		})
		if err != nil {
			return nil, err
		}
		if n > 0 && resume != out[len(out)-1].ID {
			return nil, fmt.Errorf("quiescent walk hands out cursor %q after cluster %s", resume, out[len(out)-1].ID)
		}
		if limit <= 0 || n < limit {
			return out, nil
		}
		cursor = resume
	}
}

// check compares every served surface with the model. full adds the
// §4 trichotomy of every small linked pair.
func (r *simRun) check(full bool) error {
	h, m := r.h, r.m
	if err := h.CheckInvariants(); err != nil {
		return err
	}
	if got := h.SourceNames(); !reflect.DeepEqual(got, m.names) && len(got)+len(m.names) > 0 {
		return fmt.Errorf("sources %v, model %v", got, m.names)
	}
	model := m.clusters()
	want := plainOf(model...)
	got, err := walkPages(h, 0)
	if err != nil {
		return err
	}
	if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		return fmt.Errorf("served partition differs from the closure of §4.2's tables:\nhub   %v\nmodel %v", got, want)
	}
	paged, err := walkPages(h, 1+len(r.errs)%5)
	if err != nil {
		return err
	}
	if len(paged)+len(got) > 0 && !reflect.DeepEqual(paged, got) {
		return fmt.Errorf("walk by cursor (pages of %d) differs from the walk in one pass", 1+len(r.errs)%5)
	}
	matches, tuples := 0, 0
	for ci, c := range model {
		tuples += len(c.Members)
		for _, mem := range c.Members {
			si := m.source(mem.Source)
			var key []value.Value
			for _, a := range m.rels[si].Schema().PrimaryKey() {
				key = append(key, mem.Tuple()[m.rels[si].Schema().Index(a)])
			}
			byKey, err := h.Lookup(mem.Source, key...)
			if err != nil {
				return err
			}
			byPos, err := h.ClusterAt(mem.Source, mem.Index)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(plainOf(byKey, byPos), []plainCluster{want[ci], want[ci]}) {
				return fmt.Errorf("point reads of %s/%d: by key %v, by position %v, model %v", mem.Source, mem.Index, byKey, byPos, c)
			}
		}
		if len(c.Members) < 2 {
			continue
		}
		st := []resolve.Strategy{resolve.Coalesce, resolve.PreferS}[len(r.errs)%2]
		me, err := h.Merged(c, st)
		if err != nil {
			return err
		}
		vals, conflicts, err := m.merged(c, st)
		if err != nil || !reflect.DeepEqual(me.Values, vals) || !reflect.DeepEqual(me.Conflicts, conflicts) {
			return fmt.Errorf("merged view of %s: hub %v %v, model %v %v (%v)", c.ID, me.Values, me.Conflicts, vals, conflicts, err)
		}
	}
	tables := map[string][]match.Pair{}
	if len(h.pairs) != len(m.links) {
		return fmt.Errorf("%d links, model %d", len(h.pairs), len(m.links))
	}
	for i, p := range h.pairs {
		l := m.links[i]
		id := l.spec.Left + "-" + l.spec.Right
		mt := h.pairTable(p)
		if p.spec.Left != l.spec.Left || p.spec.Right != l.spec.Right || (len(mt)+l.res.MT.Len() > 0 && !reflect.DeepEqual(mt, l.table())) {
			return fmt.Errorf("matching table %s-%s %v, §4.2 builds %s %v", p.spec.Left, p.spec.Right, mt, id, l.table())
		}
		// §3.3, in the form a snapshot cut relies on: the table only grows,
		// and in commit order — what it held at the last step is a prefix.
		if was := h.copyPairMT(cutPair{p: p, n: len(r.prev[id])}); len(was) > 0 && !reflect.DeepEqual(was, r.prev[id]) {
			return fmt.Errorf("matching table %s: its first %d commits are %v, at the last step it held %v (§3.3 monotonicity)", id, len(was), was, r.prev[id])
		}
		tables[id], matches = mt, matches+len(mt)
		if rl, sl := m.rels[l.li].Len(), m.rels[l.ri].Len(); full && rl <= 40 && sl <= 40 {
			live, err := h.PairResult(l.spec.Left, l.spec.Right)
			if err != nil {
				return err
			}
			a, b, c := live.Counts()
			if x, y, z := l.res.Counts(); a != x || b != y || c != z || a+b+c != rl*sl {
				return fmt.Errorf("pair %s: matching/not-matching/undetermined %d/%d/%d, §4's reference %d/%d/%d over %d×%d", id, a, b, c, x, y, z, rl, sl)
			}
		}
	}
	r.prev = tables
	if st, w := h.Stats(), (Stats{Sources: len(m.names), Pairs: len(m.links), Tuples: tuples, Matches: matches, Clusters: len(want)}); st != w {
		return fmt.Errorf("stats %+v, model %+v", st, w)
	}
	return nil
}

// hashFiles records the sha256 of every durable file as it stands.
func (r *simRun) hashFiles() {
	if r.files == nil {
		return
	}
	for _, pat := range []string{"wal-*.log", snapshotManifest, filepath.Join(snapSecDir, "*"+snapSecSuffix)} {
		paths, _ := filepath.Glob(filepath.Join(r.dir, pat))
		for _, p := range paths {
			if data, err := os.ReadFile(p); err == nil {
				rel, _ := filepath.Rel(r.dir, p)
				r.files[rel] = fmt.Sprintf("%x", sha256.Sum256(data))
			}
		}
	}
}

// ---------------------------------------------------------------------
// Driving: backends, shrinking, the tests
// ---------------------------------------------------------------------

// simBackends is both backends, or the one -hub.store names (the CI
// legs split the soak between them).
func simBackends() []string {
	if *hubStore != "" {
		return []string{*hubStore}
	}
	return []string{"mem", "disk"}
}

// failsOn runs s in a fresh directory and reports its failure.
func failsOn(s schedule, backend string) error {
	dir, err := os.MkdirTemp("", "sim")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r, err := runOn(s, backend, dir, nil)
	if r.h != nil {
		r.h.quiesce()
	}
	return err
}

// shrink removes ops while the schedule keeps failing: halves first, then
// smaller runs, down to single ops.
func shrink(s schedule, backend string) schedule {
	for chunk := (len(s.ops) + 1) / 2; chunk >= 1; chunk /= 2 {
		for lo := 0; lo < len(s.ops); {
			cand := s.with(append(append([]op(nil), s.ops[:lo]...), s.ops[min(lo+chunk, len(s.ops)):]...))
			if failsOn(cand, backend) != nil {
				s = cand
			} else {
				lo += chunk
			}
		}
	}
	return s
}

// runSchedule runs s on every backend under test and returns each run,
// hub open (closed with the test). A failure is reported with the
// schedule shrunk.
func runSchedule(t *testing.T, s schedule) []*simRun {
	t.Helper()
	var runs []*simRun
	for _, backend := range simBackends() {
		r, err := runOn(s, backend, t.TempDir(), nil)
		if r.h != nil {
			t.Cleanup(func() { r.h.quiesce() })
		}
		if err != nil {
			small := shrink(s, backend)
			t.Fatalf("%s backend: %v\nshrunk to %d of %d steps, failing with: %v\n%v", backend, err, len(small.ops), len(s.ops), failsOn(small, backend), small)
		}
		runs = append(runs, r)
	}
	return runs
}

// multiWork is the datagen world most pinned schedules run on, nothing
// planted or seeded.
func multiWork(sources, entities int, presence float64, seed, shuffle int64) workSpec {
	return workSpec{kind: "multi", shuffle: shuffle, cfg: datagen.MultiConfig{
		Sources: sources, Entities: entities, PresenceFrac: presence,
		HomonymRate: 0.2, MissingPhone: 0.1, DirtyPhone: 0.2, Seed: seed,
	}}
}

// servesTruth holds the served partition, by tuple content, to the
// ground truth datagen planted — an oracle that is neither the hub nor
// the model. It applies once every item of a multi workload is in.
func (r *simRun) servesTruth() error {
	keys := func(members []string) string { sort.Strings(members); return strings.Join(members, " & ") }
	var got, want []string
	for _, c := range r.h.Clusters() {
		var ms []string
		for _, m := range c.Members {
			ms = append(ms, m.Source+"|"+m.Tuple().Key())
		}
		got = append(got, keys(ms))
	}
	for _, members := range r.w.truth.TruthClusters() {
		var ms []string
		for _, m := range members {
			ms = append(ms, r.w.truth.Names[m[0]]+"|"+r.w.truth.Relations[m[0]].Tuple(m[1]).Key())
		}
		want = append(want, keys(ms))
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		return fmt.Errorf("served partition (%d clusters) is not the planted truth (%d clusters)", len(got), len(want))
	}
	return nil
}

// TestSim runs the default seed slice, or -sim.seeds=lo-hi.
func TestSim(t *testing.T) {
	lo, hi := int64(1), int64(defaultSeeds)
	if *simSeeds != "" {
		if _, err := fmt.Sscanf(*simSeeds, "%d-%d", &lo, &hi); err != nil {
			t.Fatalf("-sim.seeds=%q: want lo-hi", *simSeeds)
		}
	}
	for seed := lo; seed <= hi; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			s := genSchedule(seed)
			if again := genSchedule(seed); s.String() != again.String() {
				t.Fatal("the same seed expanded to two schedules")
			}
			runSchedule(t, s)
		})
	}
}

// bytesSchedules are TestSimBytes' fixed schedules: sequential, with
// snapshots only where the schedule says, so every run writes the same
// bytes.
func bytesSchedules() map[string]schedule {
	out := map[string]schedule{}
	for name, ws := range map[string]workSpec{
		"multi": {kind: "multi", shuffle: 3, mutants: 3, seeded: 4, cfg: datagen.MultiConfig{
			Sources: 3, Entities: 14, PresenceFrac: 0.7, HomonymRate: 0.2, MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 3}},
		"rule": {kind: "rule", shuffle: 5, seeded: 40, cfg: datagen.MultiConfig{
			Sources: 2, Entities: 30, PresenceFrac: 0.8, HomonymRate: 0.1, MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 5}},
		"ring": {kind: "ring", shuffle: 7, mutants: 2, cfg: datagen.MultiConfig{Entities: 9, Seed: 7}},
	} {
		w := ws.build()
		n := len(w.items)
		ops := append(setup(w), seq(0, n/3)...)
		ops = append(ops, snap())
		ops = append(ops, seq(n/3, n/2)...)
		ops = append(ops, reopen(reopenClose), batch(span(n/2, n)...), snap(), ins(0), reopen(reopenKill), snap())
		out[name] = schedule{work: ws, opts: simOpts{syncEvery: 4, chunkBytes: 512, hotClusters: 8, runItems: 4}, ops: ops}
	}
	return out
}

// TestSimBytes is the standing same-bytes check as a command: the fixed
// schedules must write, on both backends, exactly the files whose sha256
// testdata/simbytes.golden records. Only a PR that means to change an
// on-disk format regenerates it (-update).
func TestSimBytes(t *testing.T) {
	var lines []string
	for name, s := range bytesSchedules() {
		for _, backend := range []string{"mem", "disk"} {
			files := map[string]string{}
			r, err := runOn(s, backend, t.TempDir(), files)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, backend, err)
			}
			if err := r.h.Close(); err != nil {
				t.Fatal(err)
			}
			r.hashFiles()
			for path, sum := range files {
				lines = append(lines, fmt.Sprintf("%s %s %s %s", name, backend, path, sum))
			}
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	const golden = "testdata/simbytes.golden"
	if *simUpdate {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("the fixed schedules wrote different bytes than %s records:\n%s", golden, diffLines(string(want), got))
	}
}

func diffLines(want, got string) string {
	in := map[string]bool{}
	for _, l := range strings.Split(want, "\n") {
		in[l] = true
	}
	var out []string
	for _, l := range strings.Split(got, "\n") {
		if !in[l] {
			out = append(out, "+ "+l)
		}
		delete(in, l)
	}
	for l := range in {
		out = append(out, "- "+l)
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
