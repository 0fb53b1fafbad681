package main

import (
	"fmt"
	"os"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares one metric the benchmark emits. BENCHMARK.json
// lists the same names and units; bench/smoke_test.go holds the two
// together.
type metricDef struct{ name, unit string }

// endToEndDefs are what a user of the daemon sees. Every workload
// exercises each of them for a whole window or as a whole phase.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"ingest_tuples_per_s", "1/s"},
	{"reads_per_s", "1/s"},
	{"scan_clusters_per_s", "1/s"},
	{"recover_s", "s"},
	{"peak_rss_mb", "MB"},
	{"disk_bytes_per_user_byte", "ratio"},
}

// perLayerDefs attribute the end-to-end numbers to the program's
// layers. bench/README.md gives each one's source (client, /metrics
// scrape, /proc, traced run) and the end-to-end metric it should move.
var perLayerDefs = []metricDef{
	{"frontend.insert_p50_ms", "ms"},
	{"frontend.insert_p99_ms", "ms"},
	{"frontend.insert_p999_ms", "ms"},
	{"frontend.read_p50_ms", "ms"},
	{"frontend.read_p99_ms", "ms"},
	{"frontend.read_p9999_ms", "ms"},
	{"frontend.handler_us_per_read", "us"},
	{"frontend.self_us_per_read", "us"},
	{"frontend.handler_us_per_insert", "us"},
	{"frontend.ack_bytes_per_tuple", "bytes"},
	{"frontend.shed_total", "count"},
	{"hub.commit_us_per_tuple", "us"},
	{"hub.commit_busy_share", "ratio"},
	{"hub.apply_us_per_tuple", "us"},
	{"hub.fold_us_per_tuple", "us"},
	{"hub.pipeline_stalls_per_1k_tuples", "count"},
	{"hub.flush_epochs_per_1k_tuples", "count"},
	{"hub.lookup_us_mean", "us"},
	{"hub.scan_us_per_cluster", "us"},
	{"hub.ingest_us_per_tuple_inproc", "us"},
	{"hub.insert_us_inproc", "us"},
	{"federate.prepare_us_per_tuple", "us"},
	{"federate.matches_per_tuple", "ratio"},
	{"federate.recall", "ratio"},
	{"federate.unsound_clusters", "count"},
	{"wal.append_us_per_tuple", "us"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.rotations", "count"},
	{"wal.fs_writes_per_tuple", "count"},
	{"wal.fs_write_us_per_tuple", "us"},
	{"wal.fs_syncs", "count"},
	{"snapshot.count", "count"},
	{"snapshot.busy_share", "ratio"},
	{"snapshot.bytes_per_user_byte", "ratio"},
	{"snapshot.sections_reused_ratio", "ratio"},
	{"store.reads_per_lookup", "count"},
	{"store.read_us_mean", "us"},
	{"store.publish_us_per_tuple", "us"},
	{"store.hot_hit_ratio", "ratio"},
	{"store.pageins_per_read", "count"},
	{"store.pagein_us_mean", "us"},
	{"store.spills_per_1k_tuples", "count"},
	{"store.post_scan_hit_ratio", "ratio"},
	{"store.tier_bytes", "bytes"},
	{"recovery.replayed_records", "count"},
	{"recovery.replay_recs_per_s", "1/s"},
	{"recovery.open_s_inproc", "s"},
	{"recovery.fs_read_share", "ratio"},
	{"recovery.snapshot_bytes_loaded", "bytes"},
	{"proc.cpu_s_per_1k_tuples", "s"},
	{"proc.cpu_s_per_1k_reads", "s"},
	{"proc.write_bytes_per_user_byte", "ratio"},
	{"proc.rss_kb_per_tuple", "kB"},
	{"client.cpu_share", "ratio"},
	{"client.box_speed", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// wallClock is the timed end-to-end metrics as this box's wall clock
// showed them: what a user of this box at this moment saw. It goes
// into the env line; endToEnd scales it to reference seconds.
func wallClock(m *measured) map[string]float64 {
	var reads float64
	var readTime time.Duration
	for _, r := range m.reads {
		n, d := r.lat.span()
		reads += float64(n)
		readTime += d
	}
	return map[string]float64{
		"setup_s":             median(m.setupWall),
		"ingest_tuples_per_s": float64(m.ingest.acked) / m.ingest.wall.Seconds(),
		"reads_per_s":         float64(m.readConns) * reads / readTime.Seconds(),
		"scan_clusters_per_s": float64(m.scanLines) / m.scanWall.Seconds(),
		"recover_s":           median(m.recoverWall),
	}
}

// endToEnd shapes one run's observations into the end-to-end metrics.
// Times are reference seconds: wall-clock seconds times the box's mean
// speed over the run (cal.go), so a rate is divided by it.
func endToEnd(m *measured) map[string]float64 {
	wall := wallClock(m)
	speed := m.box.mean()
	return map[string]float64{
		"setup_s":                  wall["setup_s"] * speed,
		"ingest_tuples_per_s":      wall["ingest_tuples_per_s"] / speed,
		"reads_per_s":              wall["reads_per_s"] / speed,
		"scan_clusters_per_s":      wall["scan_clusters_per_s"] / speed,
		"recover_s":                wall["recover_s"] * speed,
		"peak_rss_mb":              m.oEnd.p.hwmKB / 1024, // at the end of timed work
		"disk_bytes_per_user_byte": float64(m.diskB) / float64(m.userB),
	}
}

// perLayer shapes one run's observations, and the traced run's when
// there is one, into the per-layer metrics. A metric whose /metrics
// family is gone from the program is left out with a warning.
func perLayer(m *measured, traced map[string]float64) map[string]float64 {
	out := map[string]float64{}
	warn := func(name, series string) {
		fmt.Fprintf(os.Stderr, "ebench: warning: %s dropped: /metrics has no %s\n", name, series)
	}
	// ratio sets out[name] = scale * Δnum/Δden over (a, b); a zero
	// denominator means the layer did no work in the phase, reported
	// as 0.
	ratio := func(name string, a, b scrape, num, den string, scale float64) {
		n, ok := delta(a, b, num)
		if !ok {
			warn(name, num)
			return
		}
		d, ok := delta(a, b, den)
		if !ok {
			warn(name, den)
			return
		}
		if d == 0 {
			out[name] = 0
			return
		}
		out[name] = scale * n / d
	}
	// per sets out[name] = scale * Δseries / by.
	per := func(name string, a, b scrape, series string, by, scale float64) {
		n, ok := delta(a, b, series)
		if !ok {
			warn(name, series)
			return
		}
		if by == 0 {
			out[name] = 0
			return
		}
		out[name] = scale * n / by
	}
	// share sets out[name] = Δx / (Δx + Δy) over (a, b).
	share := func(name string, a, b scrape, x, y string) {
		dx, ok := delta(a, b, x)
		if !ok {
			warn(name, x)
			return
		}
		dy, ok := delta(a, b, y)
		if !ok {
			warn(name, y)
			return
		}
		if dx+dy == 0 {
			out[name] = 0
			return
		}
		out[name] = dx / (dx + dy)
	}

	// The ingest window: its slices' movements, added up.
	var a scrape
	b := m.sumIngest.s
	tuples := float64(m.ingest.acked)
	wall := m.ingest.wall.Seconds()
	userB := float64(m.ingestUserB)
	const us = 1e6
	stage := func(s, f string) string { return "hub_ingest_stage_seconds_" + f + `{stage="` + s + `"}` }
	ratio("hub.commit_us_per_tuple", a, b, "hub_ingest_commit_seconds_sum", "hub_ingest_commit_seconds_count", us)
	per("hub.commit_busy_share", a, b, "hub_ingest_commit_seconds_sum", wall, 1)
	ratio("hub.apply_us_per_tuple", a, b, stage("apply", "sum"), stage("apply", "count"), us)
	ratio("hub.fold_us_per_tuple", a, b, stage("cluster_fold", "sum"), stage("cluster_fold", "count"), us)
	ratio("federate.prepare_us_per_tuple", a, b, stage("prepare", "sum"), stage("prepare", "count"), us)
	ratio("wal.append_us_per_tuple", a, b, "wal_append_seconds_sum", "wal_append_seconds_count", us)
	per("wal.bytes_per_user_byte", a, b, "wal_append_bytes_total", userB, 1)
	per("wal.rotations", a, b, "wal_rotate_seconds_count", 1, 1)
	per("hub.flush_epochs_per_1k_tuples", a, b, "hub_pipeline_flush_epochs_total", tuples, 1000)
	var stalls float64
	stallsOK := true
	for _, st := range []string{"admit", "encode", "commit"} {
		series := `hub_pipeline_stall_total{stage="` + st + `"}`
		d, ok := delta(a, b, series)
		if !ok {
			warn("hub.pipeline_stalls_per_1k_tuples", series)
			stallsOK = false
		}
		stalls += d
	}
	if stallsOK {
		out["hub.pipeline_stalls_per_1k_tuples"] = 1000 * stalls / tuples
	}
	per("snapshot.count", a, b, `hub_snapshot_total{outcome="ok"}`, 1, 1)
	per("snapshot.busy_share", a, b, "hub_snapshot_seconds_sum", wall, 1)
	per("snapshot.bytes_per_user_byte", a, b, "hub_snapshot_bytes_total", userB, 1)
	share("snapshot.sections_reused_ratio", a, b, "hub_snapshot_sections_reused_total", "hub_snapshot_sections_written_total")
	per("store.spills_per_1k_tuples", a, b, `store_tier_spills_total{kind="cluster"}`, tuples, 1000)
	per("frontend.handler_us_per_insert", a, b, `http_request_seconds_sum{route="POST /v1/insert"}`, tuples, us)
	out["frontend.ack_bytes_per_tuple"] = float64(m.ingest.ackBytes) / tuples
	out["proc.cpu_s_per_1k_tuples"] = 1000 * m.sumIngest.cpu / tuples
	if m.sumIngest.writeBytes >= 0 {
		out["proc.write_bytes_per_user_byte"] = m.sumIngest.writeBytes / userB
	} else {
		fmt.Fprintln(os.Stderr, "ebench: warning: proc.write_bytes_per_user_byte dropped: /proc/<pid>/io is not readable")
	}
	out["proc.rss_kb_per_tuple"] = m.oIngested.p.rssKB / float64(m.tuples)
	ins := latenciesMS(m.ingestLat...) // empty for a stream: reported as 0
	out["frontend.insert_p50_ms"] = quantile(ins, 0.5)
	out["frontend.insert_p99_ms"] = quantile(ins, 0.99)
	out["frontend.insert_p999_ms"] = quantile(ins, 0.999)

	// The point-read window; the live workload reads inside its ingest
	// window, where the daemon's CPU cannot be split between the two.
	if !m.wl.Live {
		b = m.sumReads.s
	}
	var lats []samples
	var nReads float64
	for _, r := range m.reads {
		lats = append(lats, r.lat)
		nReads += float64(r.attempted)
	}
	rl := latenciesMS(lats...)
	out["frontend.read_p50_ms"] = quantile(rl, 0.5)
	out["frontend.read_p99_ms"] = quantile(rl, 0.99)
	out["frontend.read_p9999_ms"] = quantile(rl, 0.9999)
	ratio("frontend.handler_us_per_read", a, b,
		`http_request_seconds_sum{route="GET /v1/cluster"}`, `http_request_seconds_count{route="GET /v1/cluster"}`, us)
	const hotReads, coldReads = `store_tier_reads_total{tier="hot"}`, `store_tier_reads_total{tier="cold"}`
	share("store.hot_hit_ratio", a, b, hotReads, coldReads) // 0 on the resident store, which has no tiers
	per("store.pageins_per_read", a, b, `store_tier_pageins_total{kind="cluster"}`, nReads, 1)
	ratio("store.pagein_us_mean", a, b,
		`store_tier_pagein_seconds_sum{kind="cluster"}`, `store_tier_pagein_seconds_count{kind="cluster"}`, us)
	if m.wl.Live {
		out["proc.cpu_s_per_1k_reads"] = 0
	} else {
		out["proc.cpu_s_per_1k_reads"] = 1000 * m.sumReads.cpu / nReads
	}
	share("store.post_scan_hit_ratio", m.oEnd.s, m.sProbe, hotReads, coldReads)

	shed, ok := delta(m.oStart.s, m.sProbe, "admit_shed_total")
	if !ok {
		warn("frontend.shed_total", "admit_shed_total")
	} else {
		out["frontend.shed_total"] = shed
	}
	out["store.tier_bytes"] = float64(m.tierBytes)
	out["federate.matches_per_tuple"] = float64(m.stats.Matches) / float64(m.tuples)
	out["federate.recall"] = m.recall
	out["federate.unsound_clusters"] = float64(m.part.Unsound)
	if v, ok := m.sRecovered["wal_replay_records_total"]; ok {
		out["recovery.replayed_records"] = v
		out["recovery.replay_recs_per_s"] = v / m.recovered.Seconds()
	} else {
		warn("recovery.replayed_records", "wal_replay_records_total")
	}
	out["client.cpu_share"] = m.clientShare()
	out["client.box_speed"] = m.box.mean()

	// The traced run's numbers, and the one metric that needs both.
	for name, v := range traced {
		out[name] = v
	}
	if h, ok := out["frontend.handler_us_per_read"]; ok {
		if l, ok := traced["hub.lookup_us_mean"]; ok {
			out["frontend.self_us_per_read"] = h - l
		}
	}
	return out
}

// named pairs values with the units of their definitions, leaving out
// what was not measured.
func named(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			out[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	return out
}
