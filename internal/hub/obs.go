// Hub metrics and the shared slow-op tracer, registered into the
// process-wide obs registry. Metrics are process-global: a process
// serving several hubs (tests do this) sees aggregates, which is what
// a scrape wants anyway. Hot-path children of labeled families are
// resolved once here so Insert never touches the family's lookup map.
package hub

import (
	"sync/atomic"
	"time"

	"entityid/internal/obs"
)

// lastOpened is the snapshotter of the durable hub opened last (nil once
// it closes), which hub_wal_bytes_since_snapshot reads at scrape time, so
// the commit path pays nothing for it.
var lastOpened atomic.Pointer[snapshotter]

func init() {
	obs.Default.GaugeFunc("hub_wal_bytes_since_snapshot",
		"WAL bytes appended since the last committed snapshot's cut, of the durable hub opened last (at open, the log tail past the snapshot)",
		func() float64 {
			if s := lastOpened.Load(); s != nil {
				return float64(s.walSinceSnapshot())
			}
			return 0
		})
}

// SlowOps records per-stage timings of commits slower than its
// threshold (default 100ms; entityidd overrides it via flag and serves
// the ring at /debug/slow). The ring holds the 128 most recent slow
// operations.
var SlowOps = obs.NewTracer(128, 100*time.Millisecond)

var (
	mIngestStage = obs.Default.LatencyHistogramVec("hub_ingest_stage_seconds",
		"Ingest commit latency by stage", "stage")
	stagePrepare     = mIngestStage.With("prepare")
	stageWalAppend   = mIngestStage.With("wal_append")
	stageApply       = mIngestStage.With("apply")
	stageClusterFold = mIngestStage.With("cluster_fold")

	mIngestSeconds = obs.Default.LatencyHistogram("hub_ingest_commit_seconds",
		"End-to-end latency of committed inserts")
	mIngestTotal = obs.Default.CounterVec("hub_ingest_total",
		"Insert outcomes", "outcome")
	ingestOK          = mIngestTotal.With("ok")
	ingestRejected    = mIngestTotal.With("rejected")
	ingestUnavailable = mIngestTotal.With("unavailable")

	mBatchSize = obs.Default.SizeHistogram("hub_ingest_batch_size",
		"IngestBatch sizes")
	mCommitRun = obs.Default.SizeHistogram("hub_commit_run_tuples",
		"Tuples committed by one commit run: a stream commits what it has queued as one run, an Insert is a run of one")

	depthCommit = obs.Default.GaugeVec("hub_pipeline_stage_depth",
		"Items queued for the commit goroutines of all ingest streams", "stage").With("commit")

	mPipeStalls = obs.Default.CounterVec("hub_pipeline_stall_total",
		"Sends that found a stream's commit goroutine input full (backpressure engaged)", "stage")
	stallCommit = mPipeStalls.With("commit")
	// Nothing increments these two: bench/cmd/ebench/metrics.go sums the
	// admit, encode and commit children and fails on a missing one, and
	// bench/ is frozen. The next benchmark PR drops them.
	_, _ = mPipeStalls.With("admit"), mPipeStalls.With("encode")

	mPipeStreams = obs.Default.Counter("hub_pipeline_streams_total",
		"IngestStream streams opened")
	mPipeFlushEpochs = obs.Default.Counter("hub_pipeline_flush_epochs_total",
		"Stream flush epochs that forced pending WAL appends to stable storage")
	mClusterMerges = obs.Default.Counter("hub_cluster_merges_total",
		"Inserts that merged the new tuple into at least one existing cluster")
	mUniqueness = obs.Default.Counter("hub_uniqueness_rejections_total",
		"Inserts rejected by a pairwise (§3.2) or transitive uniqueness check")

	mSnapshotSeconds = obs.Default.LatencyHistogram("hub_snapshot_seconds",
		"Snapshot production latency (capture, write, truncate)")
	mSnapshotTotal = obs.Default.CounterVec("hub_snapshot_total",
		"Snapshot outcomes", "outcome")
	snapshotOK     = mSnapshotTotal.With("ok")
	snapshotFail   = mSnapshotTotal.With("error")
	mSnapshotBytes = obs.Default.Counter("hub_snapshot_bytes_total",
		"Bytes newly written by snapshots (carried-forward segments cost nothing)")
	mSnapSectionsWritten = obs.Default.Counter("hub_snapshot_sections_written_total",
		"Snapshot segments encoded and written")
	mSnapSectionsReused = obs.Default.Counter("hub_snapshot_sections_reused_total",
		"Snapshot segments carried forward by reference")

	mHealthState = obs.Default.Gauge("hub_health_state",
		"Hub health: 0 ready, 1 degraded, 2 poisoned (last hub to transition wins)")
	mRecoveryPhase = obs.Default.SecondsGaugeVec("hub_recovery_phase_seconds",
		"Wall time of each phase of the last Open (RecoveryInfo): segment decode, log read, pair build, cluster fold", "phase")
	phaseDecode  = mRecoveryPhase.With("decode")
	phaseReplay  = mRecoveryPhase.With("replay")
	phaseRestore = mRecoveryPhase.With("restore")
	phaseFold    = mRecoveryPhase.With("fold")

	mProbes = obs.Default.Counter("hub_recovery_probes_total",
		"Degraded-mode recovery probe attempts")
	mRecoveries = obs.Default.Counter("hub_recoveries_total",
		"Completed degraded-to-ready recoveries")
)
