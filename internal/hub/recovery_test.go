package hub

// Crash-recovery harness for the durable hub: the K-source
// datagen.MultiGenerate workload is streamed into a hub backed by a
// write-ahead log, the hub is "killed" at randomized commit points —
// including mid-batch via an injected torn write, the observable
// behaviour of a process dying inside a WAL append — and recovery must
// reproduce the crashed hub's state bit-for-bit: same clusters, same
// per-pair matching tables, same canonical relations at the same tuple
// positions. Continuing the interrupted workload on the recovered hub
// must then land on exactly the state of an uninterrupted run, and
// inserts the hub rejected before the crash must NOT reappear after
// replay. Run under -race: ingest is concurrent and snapshots are
// written by a background goroutine.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/wal"
	"entityid/internal/wal/errfs"
)

// hubState is everything recovery must reproduce exactly.
type hubState struct {
	clusters []Cluster
	pairs    map[string][]match.Pair
	rels     map[string][]relation.Tuple
}

// stateOf captures a quiescent hub's full observable state.
func stateOf(h *Hub) hubState {
	st := hubState{
		clusters: h.Clusters(),
		pairs:    map[string][]match.Pair{},
		rels:     map[string][]relation.Tuple{},
	}
	for _, p := range h.pairs {
		key := h.sources[p.left].name + "|" + h.sources[p.right].name
		mt, err := h.copyPairMT(cutPair{p: p, n: p.mtLen})
		if err != nil {
			panic(err)
		}
		st.pairs[key] = mt
	}
	for _, s := range h.sources {
		tuples := make([]relation.Tuple, s.rel.Len())
		for i := 0; i < s.rel.Len(); i++ {
			tuples[i] = s.rel.Tuple(i).Clone()
		}
		st.rels[s.name] = tuples
	}
	return st
}

// mustEqualState asserts bit-for-bit equality: clusters (IDs, members,
// positions, tuples), sorted matching tables, and canonical relations
// position by position — plus the transitive uniqueness invariant.
func mustEqualState(t *testing.T, label string, got, want hubState) {
	t.Helper()
	if !reflect.DeepEqual(got.clusters, want.clusters) {
		t.Fatalf("%s: clusters differ:\ngot  %d clusters %v\nwant %d clusters %v",
			label, len(got.clusters), got.clusters, len(want.clusters), want.clusters)
	}
	if !reflect.DeepEqual(got.pairs, want.pairs) {
		t.Fatalf("%s: matching tables differ:\ngot  %v\nwant %v", label, got.pairs, want.pairs)
	}
	if !reflect.DeepEqual(got.rels, want.rels) {
		t.Fatalf("%s: canonical relations differ", label)
	}
	for _, c := range got.clusters {
		seen := map[string]bool{}
		for _, m := range c.Members {
			if seen[m.Source] {
				t.Fatalf("%s: cluster %s holds two tuples of source %s", label, c.ID, m.Source)
			}
			seen[m.Source] = true
		}
	}
}

// openDurableMulti opens a durable hub in dir and, when the directory
// is fresh, registers the workload's sources (empty) and links every
// pair — the durable analogue of NewFromMulti.
func openDurableMulti(t *testing.T, dir string, w *datagen.MultiWorkload, every int) (*Hub, *RecoveryInfo) {
	t.Helper()
	return openMultiOpts(t, dir, w, Options{SnapshotEvery: every})
}

// openMultiOpts is openDurableMulti under arbitrary Options.
func openMultiOpts(t testing.TB, dir string, w *datagen.MultiWorkload, opts Options) (*Hub, *RecoveryInfo) {
	t.Helper()
	h, info, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	if !info.FromSnapshot && info.LastSeq == 0 {
		for k, name := range w.Names {
			if err := h.AddSource(name, relation.New(w.Relations[k].Schema())); err != nil {
				t.Fatalf("add source %s: %v", name, err)
			}
		}
		for i := 0; i < len(w.Names); i++ {
			for j := i + 1; j < len(w.Names); j++ {
				if err := h.Link(SpecFromMultiPair(w.Pair(i, j))); err != nil {
					t.Fatalf("link %d-%d: %v", i, j, err)
				}
			}
		}
	}
	return h, info
}

// shuffled returns the workload items in a deterministic shuffle.
func shuffled(w *datagen.MultiWorkload, seed int64) []Insert {
	items := MultiInserts(w)
	rand.New(rand.NewSource(seed)).Shuffle(len(items), func(a, b int) {
		items[a], items[b] = items[b], items[a]
	})
	return items
}

// TestCrashRecoveryRandomKillPoints kills a sequentially-fed durable
// hub at randomized commit points (snapshots and log truncation firing
// along the way), recovers, and checks (a) the recovered state is
// bit-for-bit the crashed state, and (b) finishing the workload on the
// recovered hub is bit-for-bit an uninterrupted run.
func TestCrashRecoveryRandomKillPoints(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 36, PresenceFrac: 0.65, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 7,
	})
	items := shuffled(w, 77)

	ref, err := NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if _, err := ref.Insert(it.Source, it.Tuple); err != nil {
			t.Fatalf("reference insert %d: %v", i, err)
		}
	}
	refState := stateOf(ref)

	rng := rand.New(rand.NewSource(42))
	kills := []int{0, 1, len(items) / 2, len(items) - 1, len(items)}
	for n := 0; n < 3; n++ {
		kills = append(kills, rng.Intn(len(items)+1))
	}
	for _, k := range kills {
		t.Run(fmt.Sprintf("kill=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			h, _ := openDurableMulti(t, dir, w, 7)
			for i := 0; i < k; i++ {
				if _, err := h.Insert(items[i].Source, items[i].Tuple); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			crashed := stateOf(h)
			// Crash: abandon the hub without Close. Only the background
			// snapshot writer is awaited — it is another process's worth
			// of state otherwise racing the re-open below.
			h.per.quiesce()

			h2, info, err := Open(dir, Options{SnapshotEvery: 7})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer h2.Close()
			if info.TailDamage != "" {
				t.Fatalf("clean kill reported tail damage: %s", info.TailDamage)
			}
			mustEqualState(t, "recovered vs crashed", stateOf(h2), crashed)

			for i := k; i < len(items); i++ {
				if _, err := h2.Insert(items[i].Source, items[i].Tuple); err != nil {
					t.Fatalf("post-recovery insert %d: %v", i, err)
				}
			}
			mustEqualState(t, "finished vs uninterrupted", stateOf(h2), refState)
		})
	}
}

// TestCrashRecoveryMidBatchTornWrite kills the hub in the middle of a
// concurrent IngestBatch by tearing a WAL write (errfs): the append
// writes half a frame and fails, its rollback fails too, so every later
// append fails, and the affected inserts are rejected. Recovery — on a
// clean file system, the process having died — must drop the torn tail
// (CRC), reproduce the crashed hub exactly — in particular, inserts
// that were rejected (torn-write casualties and duplicate-key items)
// must NOT reappear after replay — and the interrupted workload must
// finish to the planted ground truth.
func TestCrashRecoveryMidBatchTornWrite(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 4, Entities: 40, PresenceFrac: 0.6, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 11,
	})
	base := shuffled(w, 5)
	rng := rand.New(rand.NewSource(55))

	// Plant duplicate-key items: copies of earlier tuples that every
	// schedule must reject (the source key (name, loc) already exists by
	// the time the copy could commit — or the copy commits and the
	// original is the rejected one; either way the tuple lands once).
	items := append([]Insert(nil), base...)
	dups := map[string]bool{}
	for n := 0; n < 5; n++ {
		src := base[rng.Intn(len(base)/2)]
		dup := Insert{Source: src.Source, Tuple: src.Tuple.Clone()}
		dups[src.Source+"|"+src.Tuple.Key()] = true
		at := len(items) / 2
		items = append(items[:at], append([]Insert{dup}, items[at:]...)...)
	}

	for trial := 0; trial < 3; trial++ {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			dir := t.TempDir()
			fs := errfs.New(nil)
			h := openChaosMulti(t, dir, w, 0, fs) // no snapshots: pure WAL replay
			// Kill mid-batch: after a random number of further appends,
			// the WAL tears.
			fs.Inject(
				errfs.Rule{Op: errfs.OpWrite, PathContains: "wal-", After: len(items)/4 + rng.Intn(len(items)/2), Err: syscall.EIO, Partial: 12},
				errfs.Rule{Op: errfs.OpTruncate, PathContains: "wal-", Err: syscall.EIO},
			)
			results := h.IngestBatch(items)

			var torn, committed, rejected []int
			for i, res := range results {
				switch {
				case res.Err == nil:
					committed = append(committed, i)
				case errors.Is(res.Err, ErrDegraded):
					torn = append(torn, i)
				default:
					rejected = append(rejected, i)
				}
			}
			if len(torn) == 0 {
				t.Fatal("torn write never fired")
			}
			if len(committed)+len(torn)+len(rejected) != len(items) {
				t.Fatalf("results do not partition the batch")
			}
			crashed := stateOf(h)
			h.per.quiesce()

			h2, info, err := Open(dir, Options{SnapshotEvery: 0})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer h2.Close()
			if info.TailDamage == "" {
				t.Fatal("torn write left no reported tail damage")
			}
			if info.Replayed != len(committed)+countSetup(w) {
				t.Fatalf("replayed %d records, want %d commits + %d setup",
					info.Replayed, len(committed), countSetup(w))
			}
			mustEqualState(t, "recovered vs crashed", stateOf(h2), crashed)

			// Rejected inserts must not have reappeared: a duplicate of a
			// tuple the recovered hub holds must still be rejected, with
			// nothing committed.
			present := map[string]bool{}
			for name, tuples := range stateOf(h2).rels {
				for _, tup := range tuples {
					present[name+"|"+tup.Key()] = true
				}
			}
			for key := range dups {
				if !present[key] {
					continue // its original was itself a torn-write casualty
				}
				name, _, _ := strings.Cut(key, "|")
				before, _ := h2.SourceLen(name)
				if _, err := h2.Insert(name, findTuple(t, items, key)); err == nil {
					t.Fatalf("duplicate %s accepted after recovery", key)
				}
				if after, _ := h2.SourceLen(name); after != before {
					t.Fatalf("rejected duplicate %s mutated source %s", key, name)
				}
			}

			// Finish the interrupted workload; only torn-write casualties
			// are outstanding. A casualty whose tuple is already present
			// (a duplicate-key item) must keep failing.
			for _, i := range torn {
				key := items[i].Source + "|" + items[i].Tuple.Key()
				_, err := h2.Insert(items[i].Source, items[i].Tuple)
				if present[key] {
					if err == nil {
						t.Fatalf("duplicate item %d accepted after recovery", i)
					}
					continue
				}
				if err != nil {
					t.Fatalf("post-recovery insert %d: %v", i, err)
				}
				present[key] = true
			}
			if got, want := partitionKeys(h2.Clusters()), truthKeys(w); !reflect.DeepEqual(got, want) {
				t.Fatalf("final partition differs from planted truth: %d vs %d clusters", len(got), len(want))
			}
		})
	}
}

// countSetup is the number of setup WAL records of a workload: one
// add_source per source, one link per pair.
func countSetup(w *datagen.MultiWorkload) int {
	k := len(w.Names)
	return k + k*(k-1)/2
}

// findTuple locates an item by its source|key identity.
func findTuple(t *testing.T, items []Insert, key string) relation.Tuple {
	t.Helper()
	for _, it := range items {
		if it.Source+"|"+it.Tuple.Key() == key {
			return it.Tuple.Clone()
		}
	}
	t.Fatalf("no item %s", key)
	return nil
}

// partitionKeys serialises a cluster set canonically by member content.
func partitionKeys(cs []Cluster) []string {
	out := make([]string, 0, len(cs))
	for _, c := range cs {
		keys := make([]string, 0, len(c.Members))
		for _, m := range c.Members {
			keys = append(keys, m.Source+"|"+m.Tuple.Key())
		}
		sort.Strings(keys)
		out = append(out, strings.Join(keys, " & "))
	}
	sort.Strings(out)
	return out
}

// truthKeys serialises the planted ground truth the same way.
func truthKeys(w *datagen.MultiWorkload) []string {
	out := []string{}
	for _, members := range w.TruthClusters() {
		keys := make([]string, 0, len(members))
		for _, m := range members {
			keys = append(keys, w.Names[m[0]]+"|"+w.Relations[m[0]].Tuple(m[1]).Key())
		}
		sort.Strings(keys)
		out = append(out, strings.Join(keys, " & "))
	}
	sort.Strings(out)
	return out
}

// TestRecoveryCorruptWALTail damages the log at random byte offsets —
// truncation and bit flips — and checks recovery stops at the last
// good record: the recovered hub equals an uninterrupted run over
// exactly the inserts whose records survived.
func TestRecoveryCorruptWALTail(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 30, PresenceFrac: 0.6, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 19,
	})
	items := shuffled(w, 9)

	// One full durable run, sequential so WAL order = item order.
	master := t.TempDir()
	h, _ := openDurableMulti(t, master, w, 0)
	seg := filepath.Join(master, "wal-"+fmt.Sprintf("%020d", 1)+".log")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	setupSize := fi.Size()
	for i, it := range items {
		if _, err := h.Insert(it.Source, it.Tuple); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 4; trial++ {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			dir := t.TempDir()
			data := append([]byte(nil), clean...)
			pos := setupSize + int64(rng.Intn(int(int64(len(data))-setupSize)))
			if trial%2 == 0 {
				data = data[:pos] // truncate
			} else {
				data[pos] ^= 0x40 // bit flip
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data, 0o644); err != nil {
				t.Fatal(err)
			}

			h2, info, err := Open(dir, Options{SnapshotEvery: 0})
			if err != nil {
				t.Fatalf("recover from damaged log: %v", err)
			}
			defer h2.Close()
			// The surviving inserts are a prefix of the item sequence.
			n := h2.Stats().Tuples
			if n == len(items) && info.TailDamage == "" && trial%2 == 0 && pos < int64(len(clean)) {
				t.Fatalf("truncation at %d lost nothing", pos)
			}
			ref, err := NewFromMulti(w)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := ref.Insert(items[i].Source, items[i].Tuple); err != nil {
					t.Fatalf("reference insert %d: %v", i, err)
				}
			}
			mustEqualState(t, "recovered vs clean prefix run", stateOf(h2), stateOf(ref))
		})
	}
}

// TestBackgroundSnapshotTruncatesLog checks the snapshot pipeline:
// after enough commits a background snapshot lands, the covered log
// segments are deleted, and a re-open starts from the snapshot and
// replays only the tail. SnapshotNow then truncates the log to empty.
func TestBackgroundSnapshotTruncatesLog(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 30, PresenceFrac: 0.7, HomonymRate: 0.1,
		MissingPhone: 0.1, DirtyPhone: 0.1, Seed: 3,
	})
	items := shuffled(w, 31)
	dir := t.TempDir()
	h, _ := openDurableMulti(t, dir, w, 10)
	for i, it := range items {
		if _, err := h.Insert(it.Source, it.Tuple); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	h.per.quiesce()
	want := stateOf(h)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotManifest)); err != nil {
		t.Fatalf("no snapshot manifest written: %v", err)
	}
	if secs, err := filepath.Glob(filepath.Join(dir, snapSecDir, "*"+snapSecSuffix)); err != nil || len(secs) == 0 {
		t.Fatalf("no snapshot sections written: %v %v", secs, err)
	}
	// Background rotation is decoupled from the watermark, so the
	// boundary segment may survive one snapshot round; hard truncation
	// is asserted below after the synchronous SnapshotNow.

	h2, info, err := Open(dir, Options{SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !info.FromSnapshot {
		t.Fatal("re-open ignored the snapshot")
	}
	if info.Replayed >= len(items)+countSetup(w) {
		t.Fatalf("replayed %d records despite a snapshot", info.Replayed)
	}
	mustEqualState(t, "recovered from snapshot+tail", stateOf(h2), want)

	if err := h2.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	// SnapshotNow is quiescent here, so its watermark equals the
	// rotation boundary: every prior segment must be truncated away.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments after SnapshotNow: %v %v (want exactly the fresh active segment)", segs, err)
	}
	if first := filepath.Base(segs[0]); first == "wal-"+fmt.Sprintf("%020d", 1)+".log" {
		t.Fatal("SnapshotNow did not truncate the log")
	}
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}
	h3, info3, err := Open(dir, Options{SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Close()
	if !info3.FromSnapshot || info3.Replayed != 0 {
		t.Fatalf("after SnapshotNow: FromSnapshot=%v Replayed=%d", info3.FromSnapshot, info3.Replayed)
	}
	mustEqualState(t, "recovered from forced snapshot", stateOf(h3), want)
}

// TestSnapshotRoundTripAndTamperDetection round-trips a snapshot through
// SnapshotNow and Open, then doctors copies of the directory two ways
// that keep every frame CRC, section hash and manifest entry
// self-consistent — a matching table with a pair dropped
// (federate.Restore verification) and a cluster partition with a
// cluster dropped (refold verification) — so only the semantic
// re-verification in assembleHub can catch them. Both must fail the
// open.
func TestSnapshotRoundTripAndTamperDetection(t *testing.T) {
	base := t.TempDir()
	want := snapshottedDir(t, base, datagen.MultiConfig{
		Sources: 3, Entities: 24, PresenceFrac: 0.7, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 13,
	}, 0)
	h2, info, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.FromSnapshot || info.Replayed != 0 {
		t.Fatalf("snapshot not used: %+v", info)
	}
	mustEqualState(t, "snapshot round trip", stateOf(h2), want)
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}

	// doctor re-encodes one section of a copy of the directory with
	// mutated content, then re-addresses it: new content hash, new
	// manifest entry, re-framed manifest.
	doctor := func(kind string, mutate func(*decSection) chunkItems) string {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(base)); err != nil {
			t.Fatal(err)
		}
		man, err := readManifest(wal.OS, dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, meta := range man.Sections {
			if meta.Kind != kind || meta.Items == 0 {
				continue
			}
			d, err := readSectionFile(wal.OS, dir, i, meta)
			if err != nil {
				t.Fatal(err)
			}
			body := &sectionBody{kind: kind, sec: i, items: mutate(d)}
			if d.pair != nil {
				body.link, body.rlen, body.slen = &d.pair.link, d.pair.rlen, d.pair.slen
			}
			meta.Items = body.items.len()
			if err := newDirSink(wal.OS, dir, nil).write(&meta, body, 0); err != nil {
				t.Fatal(err)
			}
			man.Sections[i] = meta
			frame, err := encodeManifest(man)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, snapshotManifest), frame, 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}
		t.Fatalf("no non-empty %s section to doctor", kind)
		return ""
	}
	badMT := doctor(secPair, func(d *decSection) chunkItems { return mtItems(d.pair.mt[:len(d.pair.mt)-1]) })
	if _, _, err := Open(badMT, Options{}); err == nil || !strings.Contains(err.Error(), "federate: restore") {
		t.Fatalf("doctored matching table: want a federate.Restore rejection, got %v", err)
	}
	badClusters := doctor(secClusters, func(d *decSection) chunkItems { return clusterItems(d.clusters[:len(d.clusters)-1]) })
	if _, _, err := Open(badClusters, Options{}); err == nil || !strings.Contains(err.Error(), "refolded pairwise matching tables") {
		t.Fatalf("doctored cluster store: want a partition refold rejection, got %v", err)
	}
}

// TestRecoveryDegenerateWorkloads sweeps the workload corners datagen
// must generate validly — a single linkless source and empty sources —
// through the full durable cycle: crash, recover, compare.
func TestRecoveryDegenerateWorkloads(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  datagen.MultiConfig
	}{
		{"single-source", datagen.MultiConfig{Sources: 1, Entities: 8, PresenceFrac: 1, Seed: 2}},
		{"empty-universe", datagen.MultiConfig{Sources: 3, Entities: 0, PresenceFrac: 0.5, Seed: 2}},
		{"absent-everywhere", datagen.MultiConfig{Sources: 2, Entities: 6, PresenceFrac: 0, Seed: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := datagen.MustMultiGenerate(tc.cfg)
			dir := t.TempDir()
			h, _ := openDurableMulti(t, dir, w, 3)
			for i, it := range MultiInserts(w) {
				if _, err := h.Insert(it.Source, it.Tuple); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			crashed := stateOf(h)
			h.per.quiesce()
			h2, _, err := Open(dir, Options{SnapshotEvery: 3})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer h2.Close()
			mustEqualState(t, "recovered vs crashed", stateOf(h2), crashed)
			if got, want := partitionKeys(h2.Clusters()), truthKeys(w); !reflect.DeepEqual(got, want) {
				t.Fatalf("partition differs from truth: %v vs %v", got, want)
			}
		})
	}
}

// TestRecoveryFailsClosedOnPartialRestore pins the snapshot↔WAL
// cross-check: a data directory missing pieces (lost log segments,
// lost snapshot) must refuse to open rather than silently replay
// around the hole or log new commits at already-covered sequence
// numbers.
func TestRecoveryFailsClosedOnPartialRestore(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 20, PresenceFrac: 0.7, HomonymRate: 0.1,
		MissingPhone: 0.1, DirtyPhone: 0.1, Seed: 29,
	})
	items := shuffled(w, 3)
	dir := t.TempDir()
	h, _ := openDurableMulti(t, dir, w, 10)
	for i, it := range items {
		if _, err := h.Insert(it.Source, it.Tuple); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := h.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}

	// copySnapshot copies the manifest and every section file.
	copySnapshot := func(t *testing.T, to string) {
		t.Helper()
		copyFile(t, filepath.Join(dir, snapshotManifest), filepath.Join(to, snapshotManifest))
		secs, err := filepath.Glob(filepath.Join(dir, snapSecDir, "*"+snapSecSuffix))
		if err != nil || len(secs) == 0 {
			t.Fatalf("sections: %v %v", secs, err)
		}
		if err := os.MkdirAll(filepath.Join(to, snapSecDir), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, s := range secs {
			copyFile(t, s, filepath.Join(to, snapSecDir, filepath.Base(s)))
		}
	}

	// Case 1: all log segments lost, snapshot kept → LastSeq < watermark.
	case1 := t.TempDir()
	copySnapshot(t, case1)
	if _, _, err := Open(case1, Options{}); err == nil {
		t.Fatal("opened a directory whose log is behind its snapshot")
	}

	// Case 2: log kept, snapshot lost → truncated prefix with no cover.
	// A stray file under the retired single-frame snapshot's name is not
	// a snapshot: it changes nothing.
	case2 := t.TempDir()
	for _, s := range segs {
		copyFile(t, s, filepath.Join(case2, filepath.Base(s)))
	}
	copyFile(t, filepath.Join(dir, snapshotManifest), filepath.Join(case2, "snapshot.ei"))
	if _, _, err := Open(case2, Options{}); err == nil || !strings.Contains(err.Error(), "no snapshot covering the truncated prefix") {
		t.Fatalf("truncated log with no snapshot: want the uncovered-prefix rejection, got %v", err)
	}

	// Case 2b: manifest kept but a section file lost → fails closed.
	case2b := t.TempDir()
	copySnapshot(t, case2b)
	for _, s := range segs {
		copyFile(t, s, filepath.Join(case2b, filepath.Base(s)))
	}
	secs2b, _ := filepath.Glob(filepath.Join(case2b, snapSecDir, "*"+snapSecSuffix))
	if err := os.Remove(secs2b[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(case2b, Options{}); err == nil {
		t.Fatal("opened a snapshot with a missing section file")
	}

	// Control: both pieces together recover fine.
	case3 := t.TempDir()
	copySnapshot(t, case3)
	for _, s := range segs {
		copyFile(t, s, filepath.Join(case3, filepath.Base(s)))
	}
	h3, info, err := Open(case3, Options{})
	if err != nil {
		t.Fatalf("full restore: %v", err)
	}
	defer h3.Close()
	if !info.FromSnapshot {
		t.Fatal("full restore ignored the snapshot")
	}
	if got := h3.Stats().Tuples; got != len(items) {
		t.Fatalf("full restore has %d tuples, want %d", got, len(items))
	}
}

// copyFile copies one file for restore scenarios.
func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidSnapshotBetweenSections kills the snapshot writer between
// section writes (the new kill points the chunked format introduces):
// the manifest was not renamed, so recovery must come up from the
// previous snapshot (or pure log) with the crashed hub's exact state,
// the orphaned section files must be swept, and the interrupted
// workload must finish to the uninterrupted result.
func TestCrashMidSnapshotBetweenSections(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 36, PresenceFrac: 0.65, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 67,
	})
	items := shuffled(w, 19)

	ref, err := NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if _, err := ref.Insert(it.Source, it.Tuple); err != nil {
			t.Fatalf("reference insert %d: %v", i, err)
		}
	}
	refState := stateOf(ref)

	errBoom := errors.New("injected crash between section writes")
	for _, killAfter := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("sections=%d", killAfter), func(t *testing.T) {
			dir := t.TempDir()
			h, _ := openDurableMulti(t, dir, w, 0)
			for i, it := range items[:len(items)/2] {
				if _, err := h.Insert(it.Source, it.Tuple); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			// First snapshot completes; the second dies mid-write.
			if err := h.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			for i, it := range items[len(items)/2:] {
				if _, err := h.Insert(it.Source, it.Tuple); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			h.per.snapSectionHook = func(sec int) error {
				if sec >= killAfter {
					return errBoom
				}
				return nil
			}
			if err := h.SnapshotNow(); !errors.Is(err, errBoom) {
				t.Fatalf("mid-snapshot kill did not fire: %v", err)
			}
			crashed := stateOf(h)
			h.per.quiesce()

			h2, info, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer h2.Close()
			if !info.FromSnapshot {
				t.Fatal("recovery ignored the committed first snapshot")
			}
			mustEqualState(t, "recovered vs crashed", stateOf(h2), crashed)
			// Orphans of the aborted attempt are swept: every surviving
			// section file is referenced by the committed manifest.
			man, err := readManifest(wal.OS, dir)
			if err != nil {
				t.Fatal(err)
			}
			referenced := map[string]bool{}
			for _, s := range man.Sections {
				referenced[s.Hash+snapSecSuffix] = true
			}
			secs, _ := filepath.Glob(filepath.Join(dir, snapSecDir, "*"))
			for _, s := range secs {
				if !referenced[filepath.Base(s)] {
					t.Fatalf("orphan section file survived recovery: %s", s)
				}
			}
			// A fresh snapshot on the recovered hub works and truncates.
			if err := h2.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			mustEqualState(t, "finished vs uninterrupted", stateOf(h2), refState)
		})
	}
}

// TestPowerLossAtSyncBoundary pins the opt-in group-commit policy:
// with SyncEvery=N, a power-loss-style crash (everything past the last
// fsync vanishes) leaves exactly the synced prefix, and recovery
// reproduces the reference run over that prefix. The truncation is
// simulated by cutting the segment file at the fsync boundary the log
// reported.
func TestPowerLossAtSyncBoundary(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 30, PresenceFrac: 0.7, HomonymRate: 0.1,
		MissingPhone: 0.1, DirtyPhone: 0.1, Seed: 71,
	})
	items := shuffled(w, 23)
	const every = 7

	dir := t.TempDir()
	h, _ := openDurableMulti(t, dir, w, 0)
	h.per.syncEvery = every
	for i, it := range items {
		if _, err := h.Insert(it.Source, it.Tuple); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	syncedSeq, syncedOff := h.per.log.Synced()
	lastSeq := h.per.log.LastSeq()
	if syncedSeq == lastSeq {
		t.Fatalf("workload ended exactly on a sync boundary; adjust sizes (seq %d)", lastSeq)
	}
	if (syncedSeq-uint64(countSetup(w)))%every != 0 {
		t.Fatalf("sync boundary %d is not a multiple of %d past setup", syncedSeq, every)
	}
	h.per.quiesce()

	// Power loss: the unsynced tail never reached the platter.
	seg := filepath.Join(dir, "wal-"+fmt.Sprintf("%020d", 1)+".log")
	if err := os.Truncate(seg, syncedOff); err != nil {
		t.Fatal(err)
	}

	h2, info, err := Open(dir, Options{SyncEvery: every})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer h2.Close()
	if info.LastSeq != syncedSeq {
		t.Fatalf("recovered through record %d, want the synced boundary %d", info.LastSeq, syncedSeq)
	}
	survived := int(syncedSeq) - countSetup(w)
	ref, err := NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < survived; i++ {
		if _, err := ref.Insert(items[i].Source, items[i].Tuple); err != nil {
			t.Fatalf("reference insert %d: %v", i, err)
		}
	}
	mustEqualState(t, "recovered vs synced prefix", stateOf(h2), stateOf(ref))

	// A stream closes its flush epoch before its results end:
	// after a batch, nothing is pending.
	rest := make([]Insert, 0, len(items)-survived)
	for _, it := range items[survived:] {
		rest = append(rest, Insert{Source: it.Source, Tuple: it.Tuple.Clone()})
	}
	for _, res := range h2.IngestBatch(rest) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if s, _ := h2.per.log.Synced(); s != h2.per.log.LastSeq() {
		t.Fatalf("IngestBatch left unsynced records: synced %d, last %d", s, h2.per.log.LastSeq())
	}
	mustEqualState(t, "finished vs uninterrupted", stateOf(h2), refState71(t, w, items))
}

// refState71 computes the uninterrupted reference state for the
// power-loss workload.
func refState71(t *testing.T, w *datagen.MultiWorkload, items []Insert) hubState {
	t.Helper()
	ref, err := NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if _, err := ref.Insert(it.Source, it.Tuple); err != nil {
			t.Fatalf("reference insert %d: %v", i, err)
		}
	}
	return stateOf(ref)
}
