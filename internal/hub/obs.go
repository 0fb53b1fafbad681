// Hub metrics and the shared slow-op tracer, registered into the
// process-wide obs registry. Metrics are process-global: a process
// serving several hubs (tests do this) sees aggregates, which is what
// a scrape wants anyway. Hot-path children of labeled families are
// resolved once here so Insert never touches the family's lookup map.
package hub

import (
	"time"

	"entityid/internal/obs"
)

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
		"Bytes newly written by snapshots (carried-forward runs cost nothing)")
	mSnapSectionsWritten = obs.Default.Counter("hub_snapshot_sections_written_total",
		"Snapshot runs encoded and written")
	mSnapSectionsReused = obs.Default.Counter("hub_snapshot_sections_reused_total",
		"Snapshot runs carried forward by reference")

	mHealthState = obs.Default.Gauge("hub_health_state",
		"Hub health: 0 ready, 1 degraded, 2 poisoned (last hub to transition wins)")
	mProbes = obs.Default.Counter("hub_recovery_probes_total",
		"Degraded-mode recovery probe attempts")
	mRecoveries = obs.Default.Counter("hub_recoveries_total",
		"Completed degraded-to-ready recoveries")
)
