// Degraded-mode state machine: how the hub serves through a failing
// disk instead of dying on it. A WAL append or snapshot failure that
// looks persistent (ENOSPC, EIO, a read-only remount — not a rejected
// tuple) moves the hub from Ready to Degraded: reads and cluster
// streaming keep serving from the published views, ingest fails fast
// with a typed ErrDegraded, and a background probe loop retries the
// disk with capped exponential backoff, flipping back to Ready on the
// first success. Because every mutation reaches the log *before* it
// touches memory, the failed append that triggers the transition was
// already rejected — acknowledged commits are never lost crossing
// either boundary.
//
// Poisoned is the terminal fail-closed state replacing the old
// commit-path invariant panics: an in-memory commit failed *after* its
// WAL append, so memory may have diverged from the log. Ingest is
// refused permanently (probes never clear poison); reads keep serving
// the views, and a restart replays the log into a consistent state.
package hub

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"entityid/internal/wal"
)

// State is the hub's health state.
type State int32

// Health states. Transitions: Ready→Degraded (persistent I/O failure),
// Degraded→Ready (recovery probe succeeds), any→Poisoned (commit-path
// invariant violation; terminal).
const (
	StateReady State = iota
	StateDegraded
	StatePoisoned
)

// String renders the state for logs and the /readyz body.
func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateDegraded:
		return "degraded"
	case StatePoisoned:
		return "poisoned"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ErrDegraded is the sentinel every ingest rejection in degraded mode
// matches via errors.Is: the hub is read-only until its disk heals.
var ErrDegraded = errors.New("hub: degraded (read-only): ingest rejected")

// ErrPoisoned is the sentinel for the terminal fail-closed state: an
// in-memory commit failed after its WAL append, so ingest is refused
// until a restart replays the log.
var ErrPoisoned = errors.New("hub: poisoned: ingest refused until restart")

// DegradedError carries the I/O failure that degraded the hub.
// errors.Is(err, ErrDegraded) matches it.
type DegradedError struct{ Cause error }

func (e *DegradedError) Error() string {
	return fmt.Sprintf("%v (cause: %v)", ErrDegraded, e.Cause)
}
func (e *DegradedError) Unwrap() error        { return e.Cause }
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// PoisonedError carries the invariant violation that poisoned the hub.
// errors.Is(err, ErrPoisoned) matches it.
type PoisonedError struct{ Cause error }

func (e *PoisonedError) Error() string {
	return fmt.Sprintf("%v (cause: %v)", ErrPoisoned, e.Cause)
}
func (e *PoisonedError) Unwrap() error        { return e.Cause }
func (e *PoisonedError) Is(target error) bool { return target == ErrPoisoned }

// Health is a point-in-time snapshot of the hub's health state.
type Health struct {
	// State is the current health state.
	State State
	// Cause is the failure that left Ready ("" while Ready).
	Cause string
	// Since is when the current state was entered.
	Since time.Time
	// Probes counts recovery probes attempted in the current degraded
	// episode (reset on recovery).
	Probes int
	// Recoveries counts completed Degraded→Ready transitions over the
	// hub's lifetime.
	Recoveries int
}

// healthState holds the hub's health fields. state is an atomic so the
// ingest fast path (one load, branch-free while Ready) never takes the
// mutex; the mutex covers the slow transitions and the descriptive
// fields.
type healthState struct {
	state atomic.Int32
	//entitylint:lock rank=85
	mu         sync.Mutex
	cause      error
	since      time.Time
	probes     int
	recoveries int
	// errMu/bgErr hold the first persistence failure found off the
	// ingest path (backgroundFailed), surfaced by Close.
	//entitylint:lock rank=80
	errMu sync.Mutex
	bgErr error
}

// Health reports the hub's current health.
func (h *Hub) Health() Health {
	h.health.mu.Lock()
	defer h.health.mu.Unlock()
	out := Health{
		State:      State(h.health.state.Load()),
		Since:      h.health.since,
		Probes:     h.health.probes,
		Recoveries: h.health.recoveries,
	}
	if h.health.cause != nil {
		out.Cause = h.health.cause.Error()
	}
	return out
}

// healthErr is the ingest fast path: nil while Ready (a single atomic
// load), a typed rejection otherwise.
func (h *Hub) healthErr() error {
	switch State(h.health.state.Load()) {
	case StateReady:
		return nil
	case StatePoisoned:
		h.health.mu.Lock()
		defer h.health.mu.Unlock()
		return &PoisonedError{Cause: h.health.cause}
	default:
		h.health.mu.Lock()
		defer h.health.mu.Unlock()
		return &DegradedError{Cause: h.health.cause}
	}
}

// ingestFailed classifies an ingest-path persistence failure. A
// persistent I/O error degrades the hub and is returned wrapped as a
// DegradedError; anything else (an encoding bug, a transient blip)
// passes through unchanged — the single failed request sees it, the
// hub stays read-write.
func (h *Hub) ingestFailed(err error) error {
	if !isPersistentIO(err) {
		return err
	}
	h.degrade(err)
	return &DegradedError{Cause: err}
}

// degrade moves Ready→Degraded and starts the recovery probe loop.
// Repeat calls while already degraded (or poisoned) are no-ops.
func (h *Hub) degrade(cause error) {
	h.health.mu.Lock()
	if !h.health.state.CompareAndSwap(int32(StateReady), int32(StateDegraded)) {
		h.health.mu.Unlock()
		return
	}
	h.health.cause = cause
	h.health.since = time.Now()
	h.health.probes = 0
	h.health.mu.Unlock()
	mHealthState.Set(int64(StateDegraded))
	if h.prober != nil {
		h.prober.startProbes(h)
	}
}

// backgroundFailed records a persistence failure found off the ingest
// path — a group-commit fsync, a snapshot. The first one is kept for
// Close to return, and a persistent one (fsync ENOSPC, snapshot EIO)
// degrades the hub just like an ingest-path append failure.
func (h *Hub) backgroundFailed(err error) {
	h.health.errMu.Lock()
	if h.health.bgErr == nil {
		h.health.bgErr = err
	}
	h.health.errMu.Unlock()
	if isPersistentIO(err) {
		h.degrade(err)
	}
}

func (s *healthState) failed() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.bgErr
}

// poison moves the hub to the terminal fail-closed state and returns
// the typed error the failed call surfaces. It replaces the old
// commit-path panics: the WAL already holds the record whose in-memory
// commit failed, so memory may have diverged from the log — refusing
// all further ingest (while reads keep serving the published views)
// and replaying the log on restart is the only path that cannot make
// the divergence worse.
func (h *Hub) poison(cause error) error {
	h.health.mu.Lock()
	defer h.health.mu.Unlock()
	if State(h.health.state.Load()) != StatePoisoned {
		h.health.state.Store(int32(StatePoisoned))
		h.health.cause = cause
		h.health.since = time.Now()
		mHealthState.Set(int64(StatePoisoned))
	}
	return &PoisonedError{Cause: h.health.cause}
}

// recoverHealth completes a degraded episode: Degraded→Ready. Poison is
// never cleared.
func (h *Hub) recoverHealth() {
	h.health.mu.Lock()
	defer h.health.mu.Unlock()
	if !h.health.state.CompareAndSwap(int32(StateDegraded), int32(StateReady)) {
		return
	}
	h.health.cause = nil
	h.health.since = time.Now()
	h.health.probes = 0
	h.health.recoveries++
	mHealthState.Set(int64(StateReady))
	mRecoveries.Inc()
}

// noteProbe counts a recovery probe attempt.
func (h *Hub) noteProbe() {
	h.health.mu.Lock()
	h.health.probes++
	h.health.mu.Unlock()
	mProbes.Inc()
}

// isPersistentIO classifies a persistence failure as the kind that will
// keep failing until an operator or the environment intervenes — a full
// or dying disk, a read-only remount, an unusable log — as opposed to a
// per-request rejection (schema violation, oversized record) that says
// nothing about the next request.
func isPersistentIO(err error) bool {
	for _, target := range []error{
		syscall.ENOSPC, // disk full
		syscall.EDQUOT, // quota exhausted
		syscall.EIO,    // device-level I/O failure
		syscall.EROFS,  // read-only filesystem
		syscall.ENODEV, // device gone
	} {
		if errors.Is(err, target) {
			return true
		}
	}
	// The log declared itself unusable (failed append whose rollback
	// also failed): no append can succeed until Heal does.
	return errors.Is(err, wal.ErrLogUnusable)
}

// prober is the degraded-mode recovery loop of a durable hub: what
// retries the disk until it heals.
type prober struct {
	log *wal.Log
	fs  wal.FS
	dir string
	// base/max bound the recovery backoff; probing guards the singleton
	// probe loop, done stops it (and is closed exactly once, by
	// stopProbes); wg lets Close wait the loop out.
	base     time.Duration
	max      time.Duration
	probing  atomic.Bool
	done     chan struct{}
	doneOnce sync.Once
	wg       sync.WaitGroup
}

// startProbes launches the degraded-mode recovery loop (at most one at
// a time): capped exponential backoff between probes, stop on recovery
// or when the hub shuts down. Called by Hub.degrade.
func (p *prober) startProbes(h *Hub) {
	if !p.probing.CompareAndSwap(false, true) {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.probing.Store(false)
		delay := p.base
		t := time.NewTimer(delay)
		defer t.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-t.C:
			}
			if State(h.health.state.Load()) != StateDegraded {
				return // poisoned or already recovered; nothing to probe for
			}
			h.noteProbe()
			if err := p.probe(); err == nil {
				h.recoverHealth()
				return
			}
			delay *= 2
			if delay > p.max {
				delay = p.max
			}
			t.Reset(delay)
		}
	}()
}

// probe checks whether the disk accepts writes again: a small canary
// file is written, fsynced and removed next to the log, then the log
// itself is healed (retrying the rollback of the append that degraded
// us and fsyncing the segment). Only when both succeed is the episode
// over — a canary that fits in a nearly-full disk must not resurrect a
// log whose own sync still fails.
func (p *prober) probe() error {
	canary := filepath.Join(p.dir, "probe.canary")
	f, err := p.fs.OpenFile(canary, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	buf := make([]byte, 8<<10)
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if rerr := p.fs.Remove(canary); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	return p.log.Heal()
}

// stopProbes tells the recovery loop to exit; safe to call repeatedly.
func (p *prober) stopProbes() {
	p.doneOnce.Do(func() { close(p.done) })
}
