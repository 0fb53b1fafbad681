// Package plan is the benchmark's fixed plan: the workloads, their
// sizes and the daemon settings each runs under. The socket driver
// (cmd/ebench) and the in-process traced run (cmd/etrace) both read it,
// so the two replay the same operations.
package plan

import (
	"strconv"
	"time"
)

// NominalSeconds is the measuring time the sizes below are written
// for, and BENCHMARK.json's run_seconds. A run's --seconds scales the
// universe and every timed window by seconds/NominalSeconds, so a short
// run is the same workload in small.
const NominalSeconds = 30

// Rounds is how many times a run goes through its timed phases. Each
// round ingests an eighth of the window's tuples, then reads, then
// scans, each for an eighth of its window, and the driver reads the
// box's speed after every slice: this box's speed wanders by a fifth
// and more over tens of seconds, so a phase measured in one stretch
// reports the stretch it fell into, while phases and speed readings
// interleaved across the run all report the same run.
const Rounds = 8

// Recoveries is how many times a run kills and restarts the daemon;
// recover_s is the median.
const Recoveries = 3

// Workload is one fixed traffic mix. Every workload runs the same life
// cycle — set-up, rounds of ingest, point reads and scans, kill -9,
// recovery — so that every end-to-end metric is exercised for a whole
// window on every workload; they differ in the daemon's settings and in
// how tuples arrive.
type Workload struct {
	Name string
	Why  string
	// Daemon settings, all passed as flags.
	Store         string // -store
	HotClusters   int    // -store-hot-clusters; 0 leaves the flag out
	SnapshotEvery int    // -snapshot-every
	// Entities is the universe size E at NominalSeconds; about 2.4 E
	// tuples are generated.
	Entities int
	// Warm is the share of the tuples streamed during set-up.
	Warm float64
	// Live: an ingest slice sends one line per POST on one connection
	// while another reads committed keys, and takes the point-read
	// slice's time as well. Otherwise an ingest slice is one NDJSON
	// stream and point reads get slices of their own.
	Live bool
}

// Workloads are the benchmark's workloads; later changes cite the names.
var Workloads = []Workload{
	{
		Name:  "live_mixed",
		Why:   "one line per POST beside point reads on the resident store, WAL only: per-request cost dominates, reads and commits contend, recovery is pure log replay; the bypass of snapshot and disk-tier changes",
		Store: "mem", SnapshotEvery: 0,
		Entities: 22000, Warm: 0.65, Live: true,
	},
	{
		Name:  "read_cold",
		Why:   "NDJSON streams under background snapshots into the disk store with a hot tier a sixth of the working set: commit pipeline, snapshot writer, spills, page-ins and tier-flushing scans do the work",
		Store: "disk", HotClusters: 4096, SnapshotEvery: 1024,
		Entities: 27000, Warm: 0.2,
	},
}

// Find returns the workload of that name, or nil.
func Find(name string) *Workload {
	for i := range Workloads {
		if Workloads[i].Name == name {
			return &Workloads[i]
		}
	}
	return nil
}

// Flags renders the daemon flags of the workload. -sync-every 0
// everywhere: fsync on a shared filesystem measures the neighbours,
// and kill -9 keeps the page cache, which is all that policy promises.
// -max-insert-body 0 lets one stream carry the whole ingest window.
func (w *Workload) Flags() []string {
	f := []string{"-sync-every", "0", "-max-insert-body", "0",
		"-store", w.Store, "-snapshot-every", strconv.Itoa(w.SnapshotEvery)}
	if w.HotClusters > 0 {
		f = append(f, "-store-hot-clusters", strconv.Itoa(w.HotClusters))
	}
	return f
}

// Size scales the workload to a run of the given length: the universe
// size, and the length of one timed window (a third of the run), which
// a phase spends in Rounds slices.
func (w *Workload) Size(seconds int) (entities int, window time.Duration) {
	entities = w.Entities * seconds / NominalSeconds
	if entities < 200 {
		entities = 200 // enough for every source pair to see matches
	}
	return entities, time.Duration(seconds) * time.Second / 3
}
