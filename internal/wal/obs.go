// WAL metrics, registered into the process-wide obs registry. The hot
// path (Append under l.mu) pays only atomic adds plus two time.Now
// calls.
package wal

import (
	"entityid/internal/obs"
)

var (
	mAppendTotal   = obs.Default.Counter("wal_append_total", "WAL records appended")
	mAppendErrors  = obs.Default.Counter("wal_append_errors_total", "WAL appends that failed")
	mAppendBytes   = obs.Default.Counter("wal_append_bytes_total", "Framed bytes written to the WAL")
	mAppendSeconds = obs.Default.LatencyHistogram("wal_append_seconds", "WAL append latency (frame write, no fsync)")
	mFsyncSeconds  = obs.Default.LatencyHistogram("wal_fsync_seconds", "WAL fsync latency")
	mFsyncErrors   = obs.Default.Counter("wal_fsync_errors_total", "WAL fsyncs that failed")
	mRotateSeconds = obs.Default.LatencyHistogram("wal_rotate_seconds", "WAL segment rotation latency")
	mReplayRecords = obs.Default.Counter("wal_replay_records_total", "WAL records replayed at open")
	mHealTotal     = obs.Default.Counter("wal_heal_total", "Successful WAL heals")
	mPoisonTotal   = obs.Default.Counter("wal_poison_total", "WAL poison events (append rollback failed; log refuses writes)")
)
