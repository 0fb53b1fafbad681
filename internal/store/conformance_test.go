package store_test

// Backend conformance: the store contract checked at the seam. The same
// script of merges, rejections and reads runs against store/mem and
// against store/disk at a hot budget so small that nearly every record
// spills, and after every step every read of every node is compared
// with a plain map-based model of the partition — so each backend meets
// the contract on its own, and disk ≡ mem on every read follows. Ballast
// between the steps fills the disk tier's spill batches, so its reads
// come both from the spill file and from the tail not yet written.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"entityid/internal/match"
	"entityid/internal/store"
	"entityid/internal/store/disk"
	"entityid/internal/store/mem"
)

// backends are the implementations under the contract. The disk
// budget (4 resident cluster members) sits far below the script's
// working set; spillFile names the file its cold records go to.
var backends = []struct {
	name      string
	budget    int // the hot cluster-entry budget open gives it; 0: unbounded
	open      func(t *testing.T, dir string) store.Backend
	spillFile string
}{
	{"mem", 0, func(*testing.T, string) store.Backend { return mem.New() }, ""},
	{"disk", 4, func(t *testing.T, dir string) store.Backend {
		b, err := disk.Open(dir, store.Caps{HotClusterEntries: 4})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}, "clusters.spill"},
}

func n(src, idx int) store.Node { return store.Node{Src: src, Idx: idx} }

// merge is one scripted commit: node n arrives matching partners. With
// reject set the merge must fail CheckMerge with ErrUniqueness and
// leave the store untouched.
type merge struct {
	n        store.Node
	partners []store.Node
	reject   bool
}

// script grows clusters over five sources. Sources 0 and 1 pair up row
// by row (rows 0..7), which alone is four times the disk budget; the
// other steps add a third and fourth member, hit both ways a merge can
// violate uniqueness, and supersede two records with one.
func script() []merge {
	var s []merge
	for i := 0; i < 8; i++ {
		s = append(s, merge{n: n(1, i), partners: []store.Node{n(0, i)}})
	}
	return append(s,
		merge{n: n(2, 0), partners: []store.Node{n(0, 0)}},
		// Both partners sit in one cluster: it is absorbed once.
		merge{n: n(3, 0), partners: []store.Node{n(1, 0), n(2, 0)}},
		// Row 0's cluster already holds a tuple of source 1.
		merge{n: n(1, 9), partners: []store.Node{n(0, 0)}, reject: true},
		// Rows 2 and 3 each hold a tuple of source 0: joining them is the
		// transitive violation.
		merge{n: n(2, 5), partners: []store.Node{n(0, 2), n(1, 3)}, reject: true},
		// A partnerless insert is a singleton and publishes nothing.
		merge{n: n(2, 6)},
		merge{n: n(3, 6), partners: []store.Node{n(2, 6)}},
		// Two records ({0/4,1/4} and {2/6,3/6}) superseded by their union.
		merge{n: n(4, 0), partners: []store.Node{n(0, 4), n(3, 6)}},
	)
}

// ballastRows is how many two-member records of sources 5 and 6, which
// no step names, are published after each accepted step: about 11 KiB of
// spill records, a sixth of the disk tier's 64 KiB write batch. Over the
// script the batches go out twice, so a step reads the records spilled
// since the last batch from the tail and the older ones from the file,
// and Partition's runs end where the file does. The universe leaves the
// ballast out; Partition and Merged count it.
const ballastRows = 1000

func ballast(step int) []merge {
	s := make([]merge, ballastRows)
	for i := range s {
		k := step*ballastRows + i
		s[i] = merge{n: n(6, k), partners: []store.Node{n(5, k)}}
	}
	return s
}

// model is the reference partition: every node of a multi-member
// cluster maps to the cluster's sorted member set.
type model map[store.Node][]store.Node

func (m model) apply(s merge) {
	set := map[store.Node]bool{s.n: true}
	for _, p := range s.partners {
		set[p] = true
		for _, x := range m[p] {
			set[x] = true
		}
	}
	if len(set) < 2 {
		return
	}
	var ms []store.Node
	for x := range set {
		ms = append(ms, x)
	}
	store.SortNodes(ms)
	for _, x := range ms {
		m[x] = ms
	}
}

func (m model) partition() (part [][]store.Node, merged int64) {
	for x, ms := range m {
		if ms[0] == x {
			part = append(part, ms)
			merged += int64(len(ms) - 1)
		}
	}
	sort.Slice(part, func(i, j int) bool {
		a, b := part[i][0], part[j][0]
		return a.Src < b.Src || (a.Src == b.Src && a.Idx < b.Idx)
	})
	return part, merged
}

// universe is every node the script mentions plus one it never does.
func universe() []store.Node {
	seen := map[store.Node]bool{n(4, 9): true}
	for _, s := range script() {
		seen[s.n] = true
		for _, p := range s.partners {
			seen[p] = true
		}
	}
	var out []store.Node
	for x := range seen {
		out = append(out, x)
	}
	store.SortNodes(out)
	return out
}

// allIn is a cut that holds every node the tests name.
var allIn = slices.Repeat([]int{math.MaxInt}, 16)

// windowAt reads nodes (src, lo) … (src, hi-1) through one Window. With
// bodies the cut is empty, so the window reads the body of every cold
// record at every node that has one: each node's set, as Read answers
// it, through the tier. Without, the cut holds every node and leads want
// no body, so the window reads none: what the index knows, and a set
// only where it is resident.
func windowAt(c store.Clusters, src, lo, hi int, bodies bool) ([]store.Slot, error) {
	w := &store.Window{Src: src, Lo: lo, Hi: hi, Leads: bodies}
	if !bodies {
		w.Cut = allIn
	}
	err := c.Window(w)
	return w.Got[:hi-lo], err
}

// glance is a window of node x alone that reads no body.
func glance(c store.Clusters, x store.Node) store.Slot {
	got, _ := windowAt(c, x.Src, x.Idx, x.Idx+1, false)
	return got[0]
}

// residency is which nodes' records a glance finds resident, with the
// occupancy and spill counters: the tier state a scan must not move.
type residency struct {
	resident                            map[store.Node]bool
	hotRecords, hotEntries, coldRecords int
	spills                              int64
}

func residencyOf(c store.Clusters) residency {
	st := c.Stats()
	r := residency{map[store.Node]bool{}, st.HotRecords, st.HotEntries, st.ColdRecords, st.Spills}
	for _, x := range universe() {
		if glance(c, x).Members != nil {
			r.resident[x] = true
		}
	}
	return r
}

// universeSources and universeRows bound the universe: its nodes are
// (source, row) with source and row below them.
const universeSources, universeRows = 5, 10

// checkScanReads holds the window to the model over every node of the
// universe's sources and rows, one window a source: a node has a record
// exactly when the model gives it a set, the record names the set's first
// member, a window that reads no body hands out a set only where it is
// resident and then the set, and one that reads every body hands out
// each node's set as Read would. It holds the window to its promise too:
// one that reads no body pages nothing in, and a full pass of both kinds
// leaves the tier as it found it.
func checkScanReads(t *testing.T, step string, c store.Clusters, want model) {
	t.Helper()
	before := residencyOf(c)
	for src := range universeSources {
		for _, bodies := range []bool{false, true} {
			pageIns := c.Stats().PageIns
			got, err := windowAt(c, src, 0, universeRows, bodies)
			if err != nil {
				t.Fatalf("%s: window of source %d (bodies %v): %v", step, src, bodies, err)
			}
			for i, g := range got {
				x := n(src, i)
				switch ms := want[x]; {
				case g.OK != (ms != nil):
					t.Fatalf("%s: window at %v: ok = %v, model set %v", step, x, g.OK, ms)
				case g.OK && g.First != ms[0]:
					t.Fatalf("%s: window at %v: first = %v, want %v", step, x, g.First, ms[0])
				case (bodies || g.Members != nil) && !reflect.DeepEqual(g.Members, ms):
					t.Fatalf("%s: window at %v (bodies %v): set = %v, want %v", step, x, bodies, g.Members, ms)
				}
			}
			if !bodies && c.Stats().PageIns != pageIns {
				t.Fatalf("%s: a window of source %d that reads no body paged %d in", step, src, c.Stats().PageIns-pageIns)
			}
		}
	}
	if after := residencyOf(c); !reflect.DeepEqual(after, before) {
		t.Fatalf("%s: a pass of windows moved the tier: %+v, was %+v", step, after, before)
	}
}

// checkAgainst compares every read the contract offers with the model.
func checkAgainst(t *testing.T, step string, c store.Clusters, want model) {
	t.Helper()
	checkScanReads(t, step, c, want)
	for _, x := range universe() {
		got, err := c.Read(x)
		if err != nil {
			t.Fatalf("%s: Read(%v): %v", step, x, err)
		}
		if !reflect.DeepEqual(got, want[x]) {
			t.Fatalf("%s: Read(%v) = %v, want %v", step, x, got, want[x])
		}
		if got, has := c.Has(x), want[x] != nil; got != has {
			t.Fatalf("%s: Has(%v) = %v, want %v", step, x, got, has)
		}
		wantMs := want[x]
		if wantMs == nil {
			wantMs = []store.Node{x} // the writer-side read names a singleton
		}
		if got, err := c.Members(x); err != nil || !reflect.DeepEqual(got, wantMs) {
			t.Fatalf("%s: Members(%v) = %v, %v, want %v", step, x, got, err, wantMs)
		}
	}
	wantPart, wantMerged := want.partition()
	if got, err := c.Partition(); err != nil || !reflect.DeepEqual(got, wantPart) {
		t.Fatalf("%s: Partition() = %v, %v, want %v", step, got, err, wantPart)
	}
	if got := c.Merged(); got != wantMerged {
		t.Fatalf("%s: Merged() = %d, want %d", step, got, wantMerged)
	}
	st := c.Stats()
	if got := st.HotRecords + st.ColdRecords; got != len(wantPart) {
		t.Fatalf("%s: Stats() counts %d hot + %d cold records, want %d in all", step, st.HotRecords, st.ColdRecords, len(wantPart))
	}
}

func TestClustersConformance(t *testing.T) {
	srcName := func(si int) string { return fmt.Sprintf("src%d", si) }
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			dir := t.TempDir()
			b := bk.open(t, dir)
			defer b.Close()
			c := b.Clusters()
			want := model{}
			checkAgainst(t, "empty", c, want)
			// held keeps every slice a read handed out, with a copy taken at
			// the time: the contract forbids the backend to ever mutate one,
			// even after the record is superseded or evicted.
			type held struct{ got, copy []store.Node }
			var handed []held
			for i, s := range script() {
				step := fmt.Sprintf("step %d (%v + %v)", i, s.n, s.partners)
				members, err := store.CheckMerge(c, s.n, s.partners, srcName)
				if s.reject {
					if !errors.Is(err, store.ErrUniqueness) {
						t.Fatalf("%s: CheckMerge = %v, want ErrUniqueness", step, err)
					}
					checkAgainst(t, step+" rejected", c, want)
					continue
				}
				if err != nil {
					t.Fatalf("%s: CheckMerge: %v", step, err)
				}
				if members != nil {
					c.Publish(members)
				}
				want.apply(s)
				if !reflect.DeepEqual(members, want[s.n]) {
					t.Fatalf("%s: CheckMerge returned %v, want %v", step, members, want[s.n])
				}
				for _, m := range ballast(i) {
					c.Publish([]store.Node{m.partners[0], m.n})
					want.apply(m)
				}
				checkAgainst(t, step, c, want)
				for _, x := range universe() {
					if got, _ := c.Read(x); got != nil {
						handed = append(handed, held{got, append([]store.Node(nil), got...)})
					}
				}
			}
			for _, h := range handed {
				if !reflect.DeepEqual(h.got, h.copy) {
					t.Fatalf("a slice handed out as %v was mutated to %v", h.copy, h.got)
				}
			}
			st := c.Stats()
			if budget := bk.budget; budget == 0 {
				if st.ColdRecords != 0 || st.Spills != 0 || st.PageIns != 0 || st.Budget != 0 {
					t.Fatalf("unbounded backend reports tier traffic: %+v", st)
				}
			} else if st.Budget != budget || st.HotEntries > budget || st.ColdRecords == 0 || st.Spills == 0 || st.PageIns == 0 {
				// Every comparison above ran against records that had been
				// spilled and paged back: the tier really was exercised.
				t.Fatalf("budget %d did not force the tier into use: %+v", budget, st)
			}
			if bk.spillFile != "" {
				if fi, err := os.Stat(filepath.Join(dir, bk.spillFile)); err != nil || fi.Size() < 2*64<<10 {
					t.Fatalf("the spill file holds fewer than two batches: %v, %v", fi, err)
				}
			}
		})
	}
}

// TestScanReadsKeepEvictionOrder: the next eviction victims are the same
// records after a pass of windows as before it. With room for two pair
// records, reading row 0 then row 1 makes row 0 the next victim and row
// 1 the one after; reading every row through a window in between, last
// of all the others, changes neither.
func TestScanReadsKeepEvictionOrder(t *testing.T) {
	b, err := disk.Open(t.TempDir(), store.Caps{HotClusterEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c := b.Clusters()
	const rows = 6
	for i := 0; i < rows; i++ {
		c.Publish(pairRecord(i))
	}
	hot := func(i int) bool { return glance(c, n(0, i)).Members != nil }
	for _, i := range []int{0, 1} {
		if _, err := c.Read(n(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := rows - 1; i >= 0; i-- {
		for s := 0; s < 2; s++ {
			if !glance(c, n(s, i)).OK {
				t.Fatalf("a window finds no record at %v", n(s, i))
			}
			if got, err := windowAt(c, s, i, i+1, true); err != nil || !reflect.DeepEqual(got[0].Members, pairRecord(i)) {
				t.Fatalf("window at %v = %v, %v", n(s, i), got[0].Members, err)
			}
		}
	}
	for k, victim := range []int{0, 1} {
		if !hot(victim) {
			t.Fatalf("row %d left the hot tier before publication %d evicted anything", victim, k)
		}
		c.Publish(pairRecord(rows + k))
		if hot(victim) || (k == 0 && !hot(1)) {
			t.Fatalf("publication %d did not evict row %d alone: rows 0, 1 hot = %v, %v", k, victim, hot(0), hot(1))
		}
	}
}

func TestPairsConformance(t *testing.T) {
	// Commit order, not sorted order, is what the hub saves: it must come
	// back exactly.
	tab := store.PairTab{RLen: 5, SLen: 7, Pairs: []match.Pair{{RIndex: 3, SIndex: 1}, {RIndex: 0, SIndex: 6}, {RIndex: 4, SIndex: 0}}}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			b := bk.open(t, t.TempDir())
			defer b.Close()
			p := b.Pairs()
			if _, err := p.Load(0); err == nil {
				t.Fatal("Load of a never-saved id succeeded")
			}
			if err := p.Save(0, tab); err != nil {
				t.Fatal(err)
			}
			if err := p.Save(3, store.PairTab{RLen: 1}); err != nil {
				t.Fatal(err)
			}
			if got, err := p.Load(0); err != nil || !reflect.DeepEqual(got, tab) {
				t.Fatalf("Load(0) = %+v, %v, want %+v", got, err, tab)
			}
			if got, err := p.Load(3); err != nil || got.RLen != 1 || got.SLen != 0 || len(got.Pairs) != 0 {
				t.Fatalf("Load(3) = %+v, %v, want an empty table over 1×0", got, err)
			}
			// A second save replaces the first.
			grown := store.PairTab{RLen: 6, SLen: 7, Pairs: append(append([]match.Pair(nil), tab.Pairs...), match.Pair{RIndex: 5, SIndex: 2})}
			if err := p.Save(0, grown); err != nil {
				t.Fatal(err)
			}
			if got, err := p.Load(0); err != nil || !reflect.DeepEqual(got, grown) {
				t.Fatalf("Load(0) after re-save = %+v, %v, want %+v", got, err, grown)
			}
			if _, err := p.Load(1); err == nil {
				t.Fatal("Load of a never-saved id succeeded after other saves")
			}
			if got, want := p.Stats(), (store.PairStats{Spilled: 2, Spills: 3, PageIns: 3}); got != want {
				t.Fatalf("Stats() = %+v, want %+v", got, want)
			}
			// The store keeps what was saved, not the caller's slice.
			mine := slices.Clone(tab.Pairs)
			if err := p.Save(2, store.PairTab{RLen: 5, SLen: 7, Pairs: mine}); err != nil {
				t.Fatal(err)
			}
			mine[0] = match.Pair{RIndex: 9, SIndex: 9}
			if got, err := p.Load(2); err != nil || !reflect.DeepEqual(got, tab) {
				t.Fatalf("Load(2) after the caller changed its slice = %+v, %v, want %+v", got, err, tab)
			}
		})
	}
}

func TestBackendIdentityAndLifecycle(t *testing.T) {
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			b := bk.open(t, t.TempDir())
			if b.Name() != bk.name {
				t.Fatalf("Name() = %q, want %q", b.Name(), bk.name)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

// lookAt reads x's record one of three ways — Read, a window that reads
// its body, a window that reads none, by way mod 3 — and holds the
// answer to what a reader racing Publish may see: no record, or the
// committed record want, holding x. A window that reads no body knows a
// cold record only by its first member, which must be want's. It reports
// whether a record was found.
func lookAt(c store.Clusters, way int, x store.Node, want []store.Node) (bool, error) {
	var ms []store.Node
	var err error
	switch way % 3 {
	case 0:
		ms, err = c.Read(x)
	default:
		var got []store.Slot
		got, err = windowAt(c, x.Src, x.Idx, x.Idx+1, way%3 == 1)
		if err == nil && got[0].OK && got[0].First != want[0] {
			return true, fmt.Errorf("window at %v names first member %v, want %v", x, got[0].First, want[0])
		}
		if err == nil && got[0].OK && got[0].Members == nil {
			return true, nil
		}
		ms = got[0].Members
	}
	switch {
	case err != nil:
		return false, err
	case ms == nil:
		return false, nil
	case !slices.Contains(ms, x) || !reflect.DeepEqual(ms, want):
		return true, fmt.Errorf("read %v at %v, want %v", ms, x, want)
	}
	return true, nil
}

// TestPublishReachesLaterMembersFirst: a reader that finds a new record
// at one member finds it at every later member too — a walk in node
// order never meets the merged cluster and then, further on, the state
// it superseded. The reader spins on each row's first member while the
// writer publishes the row, so it reads the rest inside the publication.
// The rows cross three chunk boundaries of the index, and from the middle
// row on each row's last member is of a source ordinal no record held
// before, so the index grows under its readers. Beside the ordered
// reader a second one reads nodes at random, the unpublished among them;
// both read by Read and by windows with and without bodies in turn.
func TestPublishReachesLaterMembersFirst(t *testing.T) {
	const rows, width, late = 4000, 8, 10
	row := func(i int) []store.Node {
		ms := make([]store.Node, width)
		for s := range ms {
			ms[s] = n(s, i)
		}
		if i >= rows/2 {
			ms[width-1] = n(late, i)
		}
		return ms
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			b := bk.open(t, t.TempDir())
			defer b.Close()
			c := b.Clusters()
			var watching atomic.Int64
			watching.Store(-1)
			var published atomic.Bool
			done := make(chan error, 2)
			go func() {
				for i := 0; i < rows; i++ {
					watching.Store(int64(i))
					want := row(i)
					for {
						found, err := lookAt(c, i, want[0], want)
						if err != nil {
							watching.Store(rows) // let the writer run out
							done <- fmt.Errorf("row %d: %w", i, err)
							return
						}
						if found {
							break
						}
						runtime.Gosched()
					}
					for s, x := range want[1:] {
						if found, err := lookAt(c, i+s+1, x, want); err != nil || !found {
							watching.Store(rows)
							done <- fmt.Errorf("row %d: the record stood at %v and not yet at %v (%v)", i, want[0], x, err)
							return
						}
					}
				}
				done <- nil
			}()
			go func() {
				r := rand.New(rand.NewSource(1))
				for k := 0; !published.Load(); k++ {
					i, src := r.Intn(rows), r.Intn(late+1)
					if _, err := lookAt(c, k, n(src, i), row(i)); err != nil {
						done <- fmt.Errorf("random read: %w", err)
						return
					}
					runtime.Gosched()
				}
				done <- nil
			}()
			for i := 0; i < rows; i++ {
				for watching.Load() < int64(i) {
					runtime.Gosched()
				}
				c.Publish(row(i))
			}
			published.Store(true)
			for range 2 {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestWindowReachesLaterMembersFirst is TestPublishReachesLaterMembersFirst
// for the walk's read. Each row is published twice: first its later
// half, then the whole row, which supersedes it. A row's members are
// consecutive nodes of source 0, so one window holds several members of
// a record. One reader spins windows over the row being published, so
// its reads fall inside the publications; a second reads windows at
// random. Each holds every window to the committed records — a node
// shows no record, the half or the row, with that set's first member —
// and to the later-member rule: once a node has shown a record, every
// later member of it shows that record or a newer one, in the same
// window and in every later one. From the middle row on each row's last
// member is of a source ordinal no record held before, so the index
// grows under the readers; on disk the records spill to the tail and the
// file while the windows read them.
func TestWindowReachesLaterMembersFirst(t *testing.T) {
	const rows, width, late = 4000, 8, 10
	// version v of row i: 1 is its later half, 2 the whole row.
	version := func(i, v int) []store.Node {
		var ms []store.Node
		for k := width / 2 * (2 - v); k < width; k++ {
			ms = append(ms, n(0, i*width+k))
		}
		if i >= rows/2 {
			ms = append(ms, n(late, i))
		}
		return ms
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			b := bk.open(t, t.TempDir())
			defer b.Close()
			c := b.Clusters()
			var watching atomic.Int64
			var published atomic.Bool
			// reader reads the windows next sets up until it returns false,
			// holding each to the records and to the rule; low[v][i] is the
			// smallest node of row i that has shown version v or a newer one.
			reader := func(next func(w *store.Window) bool) error {
				w := new(store.Window) // reused, as a walk reuses its window
				var low [3][rows]int
				for v := range low {
					for i := range low[v] {
						low[v][i] = math.MaxInt
					}
				}
				for next(w) {
					if err := c.Window(w); err != nil {
						return fmt.Errorf("window [%d, %d): %w", w.Lo, w.Hi, err)
					}
					for k, got := range w.Got[:w.Hi-w.Lo] {
						x, i, ver := w.Lo+k, (w.Lo+k)/width, 0
						for v := 1; v <= 2 && got.OK; v++ {
							if want := version(i, v); got.First == want[0] && reflect.DeepEqual(got.Members, want) {
								ver = v
							}
						}
						if got.OK && ver == 0 {
							return fmt.Errorf("window [%d, %d) at node %d: first %v, set %v: no record of row %d", w.Lo, w.Hi, x, got.First, got.Members, i)
						}
						for v := 1; v <= 2; v++ {
							if ver < v && x > low[v][i] && slices.Contains(version(i, v), n(0, x)) {
								return fmt.Errorf("window [%d, %d): row %d's version %d stood at node %d and not at %d, which shows %d", w.Lo, w.Hi, i, v, low[v][i], x, ver)
							}
						}
						for v := 1; v <= ver; v++ {
							low[v][i] = min(low[v][i], x)
						}
					}
				}
				return nil
			}
			done := make(chan error, 2)
			go func() {
				r := rand.New(rand.NewSource(1))
				i := 0
				err := reader(func(w *store.Window) bool {
					// Row i is over once its first member shows a record: only
					// the whole row holds it.
					if first := i * width; first >= w.Lo && first < w.Hi && w.Got[first-w.Lo].OK {
						i++
						watching.Store(int64(i))
					}
					// A window holding row i, from up to a row before it to up to
					// a row after it.
					w.Src, w.Leads = 0, true
					w.Lo = max(0, i*width-r.Intn(width+1))
					w.Hi = min(rows*width, (i+1)*width+r.Intn(width+1))
					runtime.Gosched()
					return i < rows
				})
				watching.Store(rows) // let the writer run out
				done <- err
			}()
			go func() {
				r := rand.New(rand.NewSource(2))
				done <- reader(func(w *store.Window) bool {
					w.Src, w.Leads = 0, true
					w.Lo = r.Intn(rows * width)
					w.Hi = min(rows*width, w.Lo+1+r.Intn(store.WindowNodes))
					runtime.Gosched()
					return !published.Load()
				})
			}()
			for i := 0; i < rows; i++ {
				for watching.Load() < int64(i) {
					runtime.Gosched()
				}
				c.Publish(version(i, 1))
				runtime.Gosched()
				c.Publish(version(i, 2))
			}
			published.Store(true)
			for range 2 {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			if st := c.Stats(); bk.budget > 0 && (st.ColdRecords == 0 || st.PageIns == 0) {
				t.Fatalf("the windows never read a cold record: %+v", st)
			}
		})
	}
}

// TestPartitionInNodeOrder: Partition returns the records in order of
// first member however they were published — here in random order,
// across several chunks of the index and sources with a gap between
// them, some superseded by the union of two — which the backends get by
// walking the index in node order, with no sort.
func TestPartitionInNodeOrder(t *testing.T) {
	const rows = 3000
	r := rand.New(rand.NewSource(7))
	var steps []merge
	for _, i := range r.Perm(rows) {
		steps = append(steps, merge{n: n(i%3, i), partners: []store.Node{n(5+i%2, rows-1-i)}})
	}
	for _, i := range r.Perm(rows - 1) {
		if i%7 == 0 {
			steps = append(steps, merge{n: n(i%3, i), partners: []store.Node{n((i+1)%3, i+1)}})
		}
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			b := bk.open(t, t.TempDir())
			defer b.Close()
			c := b.Clusters()
			want := model{}
			for _, s := range steps {
				want.apply(s)
				c.Publish(want[s.n])
			}
			wantPart, wantMerged := want.partition()
			if got, err := c.Partition(); err != nil || !reflect.DeepEqual(got, wantPart) {
				t.Fatalf("Partition() = %d records, %v; want %d in order of first member", len(got), err, len(wantPart))
			}
			if got := c.Merged(); got != wantMerged {
				t.Fatalf("Merged() = %d, want %d", got, wantMerged)
			}
		})
	}
}
