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
	if h.per != nil {
		h.per.startProbes(h)
	}
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
