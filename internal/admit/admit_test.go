package admit

import (
	"sync"
	"testing"
)

func TestGateBounds(t *testing.T) {
	g := New(2)
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("first two acquires should succeed")
	}
	if g.TryAcquire() {
		t.Fatal("third acquire should shed")
	}
	g.Release()
	if !g.TryAcquire() {
		t.Fatal("acquire after release should succeed")
	}
	admitted, shed := g.Counts()
	if admitted != 3 || shed != 1 {
		t.Fatalf("counts = (%d, %d), want (3, 1)", admitted, shed)
	}
	if g.InFlight() != 2 || g.Limit() != 2 {
		t.Fatalf("inflight/limit = %d/%d, want 2/2", g.InFlight(), g.Limit())
	}
}

func TestGateUnlimited(t *testing.T) {
	g := New(0)
	for i := 0; i < 100; i++ {
		if !g.TryAcquire() {
			t.Fatal("unlimited gate should always admit")
		}
	}
	g.Release() // must not underflow or panic
	if _, shed := g.Counts(); shed != 0 {
		t.Fatalf("unlimited gate shed %d", shed)
	}
}

func TestGateConcurrent(t *testing.T) {
	const limit, workers, rounds = 8, 32, 200
	g := New(limit)
	var wg sync.WaitGroup
	var mu sync.Mutex
	maxSeen, held := 0, 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if !g.TryAcquire() {
					continue
				}
				// Count the slots actually held. InFlight() would also see
				// the optimistic increment of a TryAcquire that is about to
				// be shed, which transiently overshoots the limit by design.
				mu.Lock()
				held++
				if held > maxSeen {
					maxSeen = held
				}
				mu.Unlock()
				mu.Lock()
				held--
				mu.Unlock()
				g.Release()
			}
		}()
	}
	wg.Wait()
	if maxSeen > limit {
		t.Fatalf("observed %d in flight, limit %d", maxSeen, limit)
	}
	if g.InFlight() != 0 {
		t.Fatalf("inflight at quiescence = %d, want 0", g.InFlight())
	}
	admitted, shed := g.Counts()
	if admitted+shed != workers*rounds {
		t.Fatalf("admitted+shed = %d, want %d", admitted+shed, workers*rounds)
	}
}
