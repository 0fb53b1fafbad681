package hub

// The degraded-mode state machine under injected ENOSPC/EIO, as pinned
// schedules of the simulator (sim_test.go). That a degraded hub's state
// is frozen, that it keeps serving every read, that no acknowledged
// insert is lost and no refused one resurrected across the fault, the
// heal and a kill, is what the runner checks after every step; these
// tests add the typed errors and the health record.

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
	"entityid/internal/wal"
	"entityid/internal/wal/errfs"
)

// chaosWork is the small world the chaos schedules share.
func chaosWork() (workSpec, *workload, []op) {
	ws := multiWork(3, 24, 0.65, 31, 13)
	w := ws.build()
	return ws, w, setup(w)
}

// mustBe fails unless the run's answer to step i matches target.
func mustBe(t *testing.T, r *simRun, i int, target error) {
	t.Helper()
	if !errors.Is(r.errs[i], target) {
		t.Fatalf("step %d %v answered %v, want %v", i, r.s.ops[i], r.errs[i], target)
	}
}

// noCanary fails the recovery probe's canary, so a hub that degrades
// stays degraded until heal() — whatever the fault that degraded it.
func noCanary() op {
	return fault(errfs.OpOpenFile, "probe.canary", 0, 0, syscall.EIO, 0, 0)
}

// mustDegrade fails unless step i left the hub degraded, step i+1 (an
// insert) was refused with ErrDegraded and step i+2 (the heal) ended the
// one episode.
func mustDegrade(t *testing.T, r *simRun, i int) {
	t.Helper()
	if got := r.health[i].State; got != StateDegraded {
		t.Fatalf("health after step %d %v = %v, want degraded", i, r.s.ops[i], got)
	}
	mustBe(t, r, i+1, ErrDegraded)
	if hh := r.health[i+2]; hh.State != StateReady || hh.Recoveries != 1 {
		t.Fatalf("health after the heal: %+v", hh)
	}
}

// TestChaosDegradedReadOnlyAndAutoRecovery is the main episode: every
// write fails with ENOSPC (log segments and the recovery canary alike),
// ingest and the control plane are refused with ErrDegraded, the disk
// heals, the probe loop notices on its own, and the workload finishes —
// surviving a final kill. hub_ingest_total keeps the two refusals apart:
// the insert whose append found the disk full and the one refused on the
// fast path after it are both "unavailable" — the hub could not take
// them — and "rejected" counts the tuples a §3.2, key or shape guard
// turned down, nothing else.
func TestChaosDegradedReadOnlyAndAutoRecovery(t *testing.T) {
	ws, w, ops := chaosWork()
	half, n := len(w.items)/2, len(w.items)
	ops = append(ops, seq(0, half)...)
	at := len(ops)
	ops = append(ops, fault(errfs.OpWrite, "", 0, 0, syscall.ENOSPC, 0, 0), ins(half), ins(half), link(0), heal())
	ops = append(append(ops, seq(half, n)...), reopen(reopenKill))
	rejected, unavailable := ingestRejected.Value(), ingestUnavailable.Value()
	runs := runSchedule(t, schedule{work: ws, ops: ops})
	var guards, sick uint64
	for _, r := range runs {
		for i, o := range r.s.ops {
			switch err := r.errs[i]; {
			case o.kind != opInsert || err == nil:
			case errors.Is(err, ErrDegraded):
				sick++
			default:
				guards++
			}
		}
	}
	if got := ingestUnavailable.Value() - unavailable; got != sick || sick != uint64(2*len(runs)) {
		t.Errorf("hub_ingest_total{unavailable} rose by %d over %d inserts refused degraded (two a run of %d)", got, sick, len(runs))
	}
	if got := ingestRejected.Value() - rejected; got != guards {
		t.Errorf("hub_ingest_total{rejected} rose by %d over %d inserts a guard refused", got, guards)
	}
	for _, r := range runs {
		for i := at + 1; i <= at+3; i++ { // the failing append, the fast path after it, a control-plane write
			mustBe(t, r, i, ErrDegraded)
		}
		if !errors.Is(r.errs[at+1], syscall.ENOSPC) {
			t.Fatalf("the append that degraded the hub does not carry its cause: %v", r.errs[at+1])
		}
		if hh := r.health[at+4]; hh.State != StateReady || hh.Recoveries != 1 || hh.Cause != "" {
			t.Fatalf("health after one healed episode: %+v", hh)
		}
	}
}

// TestChaosFaultAtEveryAppendPoint slides a persistent write fault
// across the WAL appends of the ingest run (odd offsets also land
// partial frame bytes the rollback must erase), snapshots firing along
// the way; after a kill the whole workload is offered again.
func TestChaosFaultAtEveryAppendPoint(t *testing.T) {
	ws, w, ops := chaosWork()
	for k := 0; k <= 10; k++ {
		t.Run(fmt.Sprintf("after=%d", k), func(t *testing.T) {
			ops := append(ops[:len(ops):len(ops)], fault(errfs.OpWrite, "wal-", k, 0, syscall.ENOSPC, 7*(k%2), 0))
			ops = append(append(ops, seq(0, len(w.items))...), reopen(reopenKill))
			for _, r := range runSchedule(t, schedule{work: ws, opts: simOpts{snapEvery: 5}, ops: append(ops, seq(0, len(w.items))...)}) {
				if err := r.servesTruth(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestChaosUnusableLogHeals drives the worst append failure — the
// rollback truncate fails too, leaving garbage tail bytes: the hub
// degrades, and the recovery probe heals the log (re-truncating the
// garbage) before flipping back.
func TestChaosUnusableLogHeals(t *testing.T) {
	ws, w, ops := chaosWork()
	half, n := len(w.items)/2, len(w.items)
	ops = append(ops, seq(0, half)...)
	at := len(ops)
	ops = append(ops, fault(errfs.OpWrite, "wal-", 0, 0, syscall.ENOSPC, 9, 0), fault(errfs.OpTruncate, "wal-", 0, 0, syscall.EIO, 0, 0), ins(half), heal())
	ops = append(append(ops, seq(half, n)...), reopen(reopenKill))
	for _, r := range runSchedule(t, schedule{work: ws, ops: ops}) {
		mustBe(t, r, at+2, ErrDegraded)
		if r.infos[1].TailDamage != "" {
			t.Fatalf("the healed log still carried garbage: %s", r.infos[1].TailDamage)
		}
	}
}

// TestChaosSnapshotSectionFault fails snapshot run-file writes (one
// write through, then EIO): the synchronous snapshot reports the
// failure and degrades the hub — ingest is refused until a probe finds
// the disk healthy — the WAL still holds everything, and after the heal
// a snapshot and a kill both land on the exact state.
func TestChaosSnapshotSectionFault(t *testing.T) {
	ws, w, ops := chaosWork()
	ops = append(ops, seq(0, len(w.items))...)
	at := len(ops)
	ops = append(ops, fault(errfs.OpWrite, "sec-", 1, 0, syscall.EIO, 0, 0), noCanary(), snap(), ins(0), heal(), snap(), reopen(reopenKill))
	for _, r := range runSchedule(t, schedule{work: ws, ops: ops}) {
		mustBe(t, r, at+2, syscall.EIO)
		mustDegrade(t, r, at+2)
		if r.errs[at+5] != nil || !r.infos[1].FromSnapshot {
			t.Fatalf("snapshot after the heal: %v, recovery %+v", r.errs[at+5], r.infos[1])
		}
	}
}

// TestChaosRotateFault fails the segment-file creation inside Rotate:
// the snapshot attempt degrades the hub (ingest is refused), the old
// segment stays fully usable, and after the heal rotation and ingest
// resume.
func TestChaosRotateFault(t *testing.T) {
	ws, w, ops := chaosWork()
	half, n := len(w.items)/2, len(w.items)
	ops = append(ops, seq(0, half)...)
	at := len(ops)
	ops = append(ops, fault(errfs.OpOpenFile, "wal-", 0, 0, syscall.ENOSPC, 0, 0), noCanary(), snap(), ins(half), heal(), snap())
	ops = append(append(ops, seq(half, n)...), reopen(reopenClose))
	for _, r := range runSchedule(t, schedule{work: ws, ops: ops}) {
		mustBe(t, r, at+2, syscall.ENOSPC)
		mustDegrade(t, r, at+2)
		if r.errs[at+5] != nil {
			t.Fatalf("snapshot after the heal: %v", r.errs[at+5])
		}
	}
}

// TestPoisonFailsClosed forces the commit-path invariant violation the
// hub answers by poisoning itself: typed refusal of all ingest, reads
// still serving the unchanged state, and no probe or degrade ever
// clearing it.
func TestPoisonFailsClosed(t *testing.T) {
	ws, w, ops := chaosWork()
	r, err := runOn(schedule{work: ws, ops: append(ops, seq(0, 4)...)}, "mem", t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	h := r.h
	if err := h.poison(errors.New("simulated commit-path invariant violation")); !errors.Is(err, ErrPoisoned) {
		t.Fatal("poison did not return a typed ErrPoisoned")
	}
	if _, err := h.Insert(w.items[4].Source, w.items[4].Tuple); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("insert on poisoned hub = %v, want ErrPoisoned", err)
	}
	if err := r.check(true); err != nil {
		t.Fatalf("poisoned hub no longer serves the state it had: %v", err)
	}
	h.degrade(errors.New("should not downgrade poison"))
	time.Sleep(20 * time.Millisecond)
	if got := h.Health().State; got != StatePoisoned {
		t.Fatalf("health = %v, want poisoned (terminal)", got)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestSnapshotFailsTheSameSyncOrBackground: SnapshotNow and the
// insert-count trigger end in one run, so a snapshot that fails under a
// given disk fault leaves the same record whichever of them asked for it
// — the same health, the same hub_snapshot_total{outcome="error"} delta,
// the same first error out of Close.
func TestSnapshotFailsTheSameSyncOrBackground(t *testing.T) {
	const inserts = 6
	type outcome struct {
		state    State
		cause    string
		failures uint64
		closeErr string
	}
	run := func(t *testing.T, rule errfs.Rule, background bool) outcome {
		dir := t.TempDir()
		fsys := errfs.New(wal.OS)
		opts := Options{FS: fsys, ProbeBackoff: time.Hour} // one episode: no probe gets to end it
		if background {
			opts.SnapshotEvery = inserts
		}
		h, _, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		rel := relation.New(schema.MustNew("s", []schema.Attribute{{Name: "id", Kind: value.KindString}}, []string{"id"}))
		if err := h.AddSource("s", rel); err != nil {
			t.Fatal(err)
		}
		before := snapshotFail.Value()
		fsys.Inject(rule)
		for _, it := range rowItems(0, inserts) {
			if _, err := h.Insert(it.Source, it.Tuple); err != nil {
				t.Fatal(err)
			}
		}
		if background {
			h.snap.wg.Wait()
		} else if err := h.SnapshotNow(); !errors.Is(err, rule.Err) {
			t.Fatalf("SnapshotNow under the fault = %v, want %v", err, rule.Err)
		}
		hh := h.Health()
		out := outcome{state: hh.State, cause: hh.Cause, failures: snapshotFail.Value() - before}
		fsys.Clear()
		if err := h.Close(); !errors.Is(err, rule.Err) {
			t.Fatalf("Close after the failed snapshot = %v, want %v", err, rule.Err)
		} else {
			out.closeErr = err.Error()
		}
		// Paths differ run to run: the directory, a section's temp name.
		scrub := func(s string) string {
			return regexp.MustCompile(`sec-\d+\.tmp`).ReplaceAllString(strings.ReplaceAll(s, dir, "DIR"), "sec-N.tmp")
		}
		out.cause, out.closeErr = scrub(out.cause), scrub(out.closeErr)
		return out
	}
	for name, rule := range map[string]errfs.Rule{
		"rotate":          {Op: errfs.OpOpenFile, PathContains: "wal-", Err: syscall.ENOSPC},
		"section write":   {Op: errfs.OpWrite, PathContains: "sec-", Err: syscall.EIO},
		"section sync":    {Op: errfs.OpSync, PathContains: "sec-", Err: syscall.EIO},
		"manifest write":  {Op: errfs.OpOpenFile, PathContains: snapshotManTmp, Err: syscall.EROFS},
		"manifest rename": {Op: errfs.OpRename, PathContains: snapshotManifest, Err: syscall.EIO},
		"not persistent":  {Op: errfs.OpCreateTemp, PathContains: snapSecDir, Err: syscall.EMFILE},
	} {
		t.Run(name, func(t *testing.T) {
			now, bg := run(t, rule, false), run(t, rule, true)
			if now != bg {
				t.Fatalf("a failed SnapshotNow left\n%+v\nthe same failure in the background\n%+v", now, bg)
			}
			wantState := StateDegraded
			if name == "not persistent" {
				wantState = StateReady
			}
			if now.state != wantState || now.failures != 1 {
				t.Fatalf("outcome %+v, want %v and one counted failure", now, wantState)
			}
		})
	}
}
