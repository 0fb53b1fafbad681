package hub

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"entityid/internal/datagen"
)

// TestLoadSnapshotNoGoroutineLeak hammers Open with directories whose
// segment files are bit-rotted (the fuzz workload in miniature) and checks
// the parallel segment readers of the snapshot load are always reaped, on
// failure paths included.
func TestLoadSnapshotNoGoroutineLeak(t *testing.T) {
	dir := t.TempDir()
	snapshottedDir(t, dir, datagen.MultiConfig{
		Sources: 2, Entities: 12, PresenceFrac: 0.8, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 5,
	}, 1<<10, 4)
	secs, err := filepath.Glob(filepath.Join(dir, snapSecDir, "*"+snapSecSuffix))
	if err != nil || len(secs) == 0 {
		t.Fatalf("runs: %v %v", secs, err)
	}
	rng := rand.New(rand.NewSource(1))
	before := runtime.NumGoroutine()
	start := time.Now()
	const rounds = 300
	for i := 0; i < rounds; i++ {
		path := secs[rng.Intn(len(secs))]
		clean, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data := append([]byte(nil), clean...)
		for n := 0; n < 1+rng.Intn(4); n++ {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Any net change to the bytes changes the run's content hash,
		// so the open must fail closed (flips that cancelled out aside).
		if h, _, err := openOn(dir, Options{}); err == nil {
			h.Close()
			if !bytes.Equal(data, clean) {
				t.Fatalf("round %d: bit-rotted segment file %s loaded", i, filepath.Base(path))
			}
		}
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d opens in %v (%.0f/sec)", rounds, time.Since(start), rounds/time.Since(start).Seconds())
	mustNotLeakGoroutines(t, before+5)
}

// mustNotLeakGoroutines fails unless the goroutine count settles back to
// at most limit within two seconds.
func mustNotLeakGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > limit && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > limit {
		t.Fatalf("goroutine leak: %d goroutines, want at most %d", after, limit)
	}
}
