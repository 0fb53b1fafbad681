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
	"syscall"
	"testing"
	"time"

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
// surviving a final kill.
func TestChaosDegradedReadOnlyAndAutoRecovery(t *testing.T) {
	ws, w, ops := chaosWork()
	half, n := len(w.items)/2, len(w.items)
	ops = append(ops, seq(0, half)...)
	at := len(ops)
	ops = append(ops, fault(errfs.OpWrite, "", 0, 0, syscall.ENOSPC, 0, 0), ins(half), ins(half), link(0), heal())
	ops = append(append(ops, seq(half, n)...), reopen(reopenKill))
	for _, r := range runSchedule(t, schedule{work: ws, ops: ops}) {
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

// TestChaosSnapshotSectionFault fails snapshot section writes (one
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
