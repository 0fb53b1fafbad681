package hub

// Chaos harness for the degraded-mode state machine: ENOSPC/EIO faults
// are injected through the errfs filesystem at every WAL append point,
// mid-rotation and between snapshot section writes, and the hub must
// (a) lose no acknowledged insert, (b) keep serving reads from the
// published views while degraded, (c) reject ingest fast with a typed
// ErrDegraded, and (d) re-enter read-write automatically once the
// faults clear — all under -race.

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"

	"entityid/internal/datagen"
	"entityid/internal/wal"
	"entityid/internal/wal/errfs"
)

// chaosWorkload is the shared small multi-source workload.
func chaosWorkload(t *testing.T) (*datagen.MultiWorkload, []Insert, hubState) {
	t.Helper()
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 24, PresenceFrac: 0.65, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 31,
	})
	items := shuffled(w, 13)
	ref, err := NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if _, err := ref.Insert(it.Source, it.Tuple); err != nil {
			t.Fatalf("reference insert %d: %v", i, err)
		}
	}
	return w, items, stateOf(ref)
}

// openChaosMulti opens a durable hub over the injected filesystem with
// fast recovery probes, registering the workload topology when fresh.
func openChaosMulti(t *testing.T, dir string, w *datagen.MultiWorkload, every int, fsys wal.FS) *Hub {
	t.Helper()
	h, _ := openMultiOpts(t, dir, w, Options{
		SnapshotEvery: every, FS: fsys,
		ProbeBackoff: 2 * time.Millisecond, ProbeBackoffMax: 20 * time.Millisecond,
	})
	return h
}

// waitHealth spins until the hub reaches the wanted state (the probe
// loop runs on millisecond backoff in these tests).
func waitHealth(t *testing.T, h *Hub, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if State(h.health.state.Load()) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("hub never reached %v (stuck at %v, cause %q)", want, h.Health().State, h.Health().Cause)
}

// mustReadsServe asserts the degraded read paths still answer from the
// published views.
func mustReadsServe(t *testing.T, h *Hub, w *datagen.MultiWorkload) {
	t.Helper()
	served := 0
	for _, name := range w.Names {
		n, err := h.SourceLen(name)
		if err != nil {
			t.Fatalf("SourceLen(%s) while degraded: %v", name, err)
		}
		for i := 0; i < n; i++ {
			if _, err := h.ClusterAt(name, i); err != nil {
				t.Fatalf("ClusterAt(%s, %d) while degraded: %v", name, i, err)
			}
			served++
		}
	}
	count := 0
	for range h.ClustersIter() {
		count++
	}
	if served > 0 && count == 0 {
		t.Fatal("cluster streaming returned nothing while degraded")
	}
}

// TestChaosDegradedReadOnlyAndAutoRecovery is the main episode: a disk
// that stops accepting writes degrades the hub (typed rejection, state
// bit-for-bit frozen, reads serving), then heals, and the hub resumes
// read-write on its own and finishes the workload to the uninterrupted
// reference state — surviving a final crash/reopen too.
func TestChaosDegradedReadOnlyAndAutoRecovery(t *testing.T) {
	w, items, refState := chaosWorkload(t)
	fs := errfs.New(nil)
	dir := t.TempDir()
	h := openChaosMulti(t, dir, w, 0, fs)

	half := len(items) / 2
	for i := 0; i < half; i++ {
		if _, err := h.Insert(items[i].Source, items[i].Tuple); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	preFault := stateOf(h)

	// The disk dies: every write (WAL segments and the recovery canary
	// alike) fails with ENOSPC.
	fs.Inject(errfs.Rule{Op: errfs.OpWrite, Err: syscall.ENOSPC})
	if _, err := h.Insert(items[half].Source, items[half].Tuple); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert on failing disk = %v, want ErrDegraded", err)
	}
	// Later ingest fails fast on the health check, still typed, and a
	// control-plane write is refused the same way.
	if _, err := h.Insert(items[half].Source, items[half].Tuple); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert while degraded = %v, want ErrDegraded", err)
	}
	if err := h.Link(PairSpec{Left: "nope", Right: "nada"}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("link while degraded = %v, want ErrDegraded", err)
	}
	hh := h.Health()
	if hh.State != StateDegraded || hh.Cause == "" {
		t.Fatalf("health = %+v, want degraded with a cause", hh)
	}
	// Nothing moved: the failed append was rejected before any
	// in-memory commit.
	mustEqualState(t, "degraded vs pre-fault", stateOf(h), preFault)
	mustReadsServe(t, h, w)

	// The disk heals; the probe loop notices and flips back without any
	// operator involvement.
	fs.Clear()
	waitHealth(t, h, StateReady)
	if got := h.Health(); got.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", got.Recoveries)
	}
	for i := half; i < len(items); i++ {
		if _, err := h.Insert(items[i].Source, items[i].Tuple); err != nil {
			t.Fatalf("post-recovery insert %d: %v", i, err)
		}
	}
	mustEqualState(t, "finished vs uninterrupted", stateOf(h), refState)

	// Crash and reopen on the clean filesystem: everything acknowledged
	// across both fault boundaries replays.
	h.per.quiesce()
	h2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer h2.Close()
	if info.TailDamage != "" {
		t.Fatalf("reopen reported tail damage: %s", info.TailDamage)
	}
	mustEqualState(t, "reopened vs finished", stateOf(h2), refState)
}

// TestChaosFaultAtEveryAppendPoint slides a persistent write fault
// across every WAL append of the ingest run (odd offsets also land
// partial frame bytes) and pins, for each fault point: acknowledged
// inserts survive a crash/reopen bit-for-bit, and the interrupted
// workload finishes to the reference state on the recovered directory.
func TestChaosFaultAtEveryAppendPoint(t *testing.T) {
	w, items, refState := chaosWorkload(t)
	for k := 0; k <= 10; k++ {
		k := k
		t.Run(fmt.Sprintf("after=%d", k), func(t *testing.T) {
			fs := errfs.New(nil)
			dir := t.TempDir()
			h := openChaosMulti(t, dir, w, 5, fs) // snapshots firing along the way
			rule := errfs.Rule{Op: errfs.OpWrite, PathContains: "wal-", After: k, Err: syscall.ENOSPC}
			if k%2 == 1 {
				rule.Partial = 7 // torn frame bytes land on disk, rollback must erase them
			}
			fs.Inject(rule)

			acked := make([]bool, len(items))
			for i, it := range items {
				if _, err := h.Insert(it.Source, it.Tuple); err == nil {
					acked[i] = true
				} else if !errors.Is(err, ErrDegraded) {
					t.Fatalf("insert %d failed untypedly: %v", i, err)
				}
			}
			degraded := stateOf(h)
			// Crash without Close; reopen on a healthy filesystem.
			h.per.quiesce()
			h2, info, err := Open(dir, Options{SnapshotEvery: 5})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer h2.Close()
			if info.TailDamage != "" {
				t.Fatalf("reopen reported tail damage: %s", info.TailDamage)
			}
			// No acknowledged insert lost, no rejected insert resurrected.
			mustEqualState(t, "reopened vs degraded", stateOf(h2), degraded)
			for i, it := range items {
				if acked[i] {
					continue
				}
				if _, err := h2.Insert(it.Source, it.Tuple); err != nil {
					t.Fatalf("finish insert %d: %v", i, err)
				}
			}
			mustEqualState(t, "finished vs uninterrupted", stateOf(h2), refState)
		})
	}
}

// TestChaosUnusableLogHeals drives the worst append failure — the
// rollback truncate fails too, leaving garbage tail bytes — and checks
// the hub degrades, serves reads, and that the recovery probe heals
// the log (re-truncating the garbage) before flipping back.
func TestChaosUnusableLogHeals(t *testing.T) {
	w, items, refState := chaosWorkload(t)
	fs := errfs.New(nil)
	dir := t.TempDir()
	h := openChaosMulti(t, dir, w, 0, fs)
	half := len(items) / 2
	for i := 0; i < half; i++ {
		if _, err := h.Insert(items[i].Source, items[i].Tuple); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	preFault := stateOf(h)
	fs.Inject(
		errfs.Rule{Op: errfs.OpWrite, PathContains: "wal-", Err: syscall.ENOSPC, Partial: 9},
		errfs.Rule{Op: errfs.OpTruncate, PathContains: "wal-", Err: syscall.EIO},
	)
	if _, err := h.Insert(items[half].Source, items[half].Tuple); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert on unusable log = %v, want ErrDegraded", err)
	}
	mustEqualState(t, "degraded vs pre-fault", stateOf(h), preFault)
	mustReadsServe(t, h, w)

	fs.Clear()
	waitHealth(t, h, StateReady)
	for i := half; i < len(items); i++ {
		if _, err := h.Insert(items[i].Source, items[i].Tuple); err != nil {
			t.Fatalf("post-heal insert %d: %v", i, err)
		}
	}
	mustEqualState(t, "finished vs uninterrupted", stateOf(h), refState)

	h.per.quiesce()
	h2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer h2.Close()
	mustEqualState(t, "reopened vs finished", stateOf(h2), refState)
}

// TestChaosSnapshotSectionFault fails snapshot section writes (first
// section through, EIO between sections): the synchronous snapshot
// reports the failure and degrades the hub, the WAL still holds
// everything, and after the fault clears a snapshot and a crash/reopen
// both land on the exact state.
func TestChaosSnapshotSectionFault(t *testing.T) {
	w, items, _ := chaosWorkload(t)
	fs := errfs.New(nil)
	dir := t.TempDir()
	h := openChaosMulti(t, dir, w, 0, fs)
	for i := 0; i < len(items); i++ {
		if _, err := h.Insert(items[i].Source, items[i].Tuple); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	full := stateOf(h)

	// Section temp files are written under snapsecs/ as sec-*.tmp; let
	// one section land, then EIO.
	fs.Inject(errfs.Rule{Op: errfs.OpWrite, PathContains: "sec-", After: 1, Err: syscall.EIO})
	if err := h.SnapshotNow(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("snapshot on failing disk = %v, want EIO", err)
	}
	if got := h.Health().State; got != StateDegraded {
		t.Fatalf("health after snapshot failure = %v, want degraded", got)
	}
	if _, err := h.Insert(items[0].Source, items[0].Tuple); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert after snapshot failure = %v, want ErrDegraded", err)
	}
	mustEqualState(t, "degraded vs full", stateOf(h), full)
	mustReadsServe(t, h, w)

	fs.Clear()
	waitHealth(t, h, StateReady)
	if err := h.SnapshotNow(); err != nil {
		t.Fatalf("snapshot after recovery: %v", err)
	}
	h.per.quiesce()
	h2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer h2.Close()
	if !info.FromSnapshot {
		t.Fatal("reopen did not load the recovered snapshot")
	}
	mustEqualState(t, "reopened vs full", stateOf(h2), full)
}

// TestChaosRotateFault fails the segment-file creation inside Rotate:
// the snapshot attempt degrades the hub, the old segment stays fully
// usable, and recovery resumes rotation and ingest.
func TestChaosRotateFault(t *testing.T) {
	w, items, refState := chaosWorkload(t)
	fs := errfs.New(nil)
	dir := t.TempDir()
	h := openChaosMulti(t, dir, w, 0, fs)
	half := len(items) / 2
	for i := 0; i < half; i++ {
		if _, err := h.Insert(items[i].Source, items[i].Tuple); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	preFault := stateOf(h)
	fs.Inject(errfs.Rule{Op: errfs.OpOpenFile, PathContains: "wal-", Err: syscall.ENOSPC})
	if err := h.SnapshotNow(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("snapshot with failing rotate = %v, want ENOSPC", err)
	}
	if got := h.Health().State; got != StateDegraded {
		t.Fatalf("health after rotate failure = %v, want degraded", got)
	}
	mustEqualState(t, "degraded vs pre-fault", stateOf(h), preFault)

	fs.Clear()
	waitHealth(t, h, StateReady)
	if err := h.SnapshotNow(); err != nil {
		t.Fatalf("snapshot after recovery: %v", err)
	}
	for i := half; i < len(items); i++ {
		if _, err := h.Insert(items[i].Source, items[i].Tuple); err != nil {
			t.Fatalf("post-recovery insert %d: %v", i, err)
		}
	}
	mustEqualState(t, "finished vs uninterrupted", stateOf(h), refState)
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestPoisonFailsClosed forces the commit-path invariant violation the
// old code answered with panic: the hub must poison instead — typed
// refusal of all ingest, reads still serving, probes never clearing it.
func TestPoisonFailsClosed(t *testing.T) {
	w, items, _ := chaosWorkload(t)
	fs := errfs.New(nil)
	dir := t.TempDir()
	h := openChaosMulti(t, dir, w, 0, fs)
	for i := 0; i < 4; i++ {
		if _, err := h.Insert(items[i].Source, items[i].Tuple); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	pre := stateOf(h)
	if err := h.poison(errors.New("simulated commit-path invariant violation")); !errors.Is(err, ErrPoisoned) {
		t.Fatal("poison did not return a typed ErrPoisoned")
	}
	if _, err := h.Insert(items[4].Source, items[4].Tuple); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("insert on poisoned hub = %v, want ErrPoisoned", err)
	}
	mustEqualState(t, "poisoned vs pre", stateOf(h), pre)
	mustReadsServe(t, h, w)
	// Poison is terminal: no probe may clear it.
	h.degrade(errors.New("should not downgrade poison"))
	time.Sleep(20 * time.Millisecond)
	if got := h.Health().State; got != StatePoisoned {
		t.Fatalf("health = %v, want poisoned (terminal)", got)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
