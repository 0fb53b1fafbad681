// Command benchreport runs every experiment in the reproduction — the
// paper's Tables 1–8, Figures 1–4, both §6 prototype sessions, and the
// added sweeps S1–S4 — and prints each rendered artifact with its
// paper-vs-measured verdict. EXPERIMENTS.md is generated from this
// output.
//
// Usage:
//
//	benchreport                          # print all reports
//	benchreport -id T7                   # print one report
//	benchreport -check                   # exit 1 if any reproduction check fails
//	benchreport -benchjson BENCH_match.json
//	                                     # time the scale matching workload
//	                                     # (engine vs naive) and write the
//	                                     # JSON perf record tracked across PRs
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"entityid/internal/admit"
	"entityid/internal/datagen"
	"entityid/internal/experiments"
	"entityid/internal/hub"
	"entityid/internal/match"
	"entityid/internal/obs"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
	"entityid/internal/wal/errfs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		id        = fs.String("id", "", "run only the experiment with this id (e.g. T7, F3)")
		check     = fs.Bool("check", false, "exit nonzero if any reproduction check fails")
		benchJSON = fs.String("benchjson", "", "measure the scale matching workload (engine vs naive) and write a JSON report to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *benchJSON != "" {
		return runBenchJSON(*benchJSON, w)
	}
	failures := 0
	ran := 0
	for _, runner := range experiments.Registry() {
		if *id != "" && !strings.EqualFold(runner.ID, *id) {
			continue
		}
		rep := runner.Run()
		ran++
		fmt.Fprintf(w, "==== %s: %s ====\n", rep.ID, rep.Title)
		fmt.Fprint(w, rep.Text)
		if rep.Check == nil {
			fmt.Fprintf(w, "[%s] REPRODUCED\n\n", rep.ID)
		} else {
			failures++
			fmt.Fprintf(w, "[%s] FAILED: %v\n\n", rep.ID, rep.Check)
		}
	}
	if ran == 0 {
		fmt.Fprintf(w, "no experiment with id %q\n", *id)
		return 2
	}
	fmt.Fprintf(w, "%d/%d experiments reproduced\n", ran-failures, ran)
	if *check && failures > 0 {
		return 1
	}
	return 0
}

// benchRecord is the perf trajectory record written to BENCH_match.json:
// one engine-vs-naive measurement of the canonical scale workload
// (datagen.ScaleMatchConfig) per PR, so regressions and wins are visible
// in version control.
type benchRecord struct {
	GeneratedAt string `json:"generated_at"`
	GoMaxProcs  int    `json:"gomaxprocs"`

	RTuples       int `json:"r_tuples"`
	STuples       int `json:"s_tuples"`
	MTPairs       int `json:"mt_pairs"`
	DistinctRules int `json:"distinct_rules"`

	Matching     int `json:"matching"`
	NotMatching  int `json:"not_matching"`
	Undetermined int `json:"undetermined"`

	EngineBuildNS  int64   `json:"engine_build_ns"`
	NaiveBuildNS   int64   `json:"naive_build_ns"`
	BuildSpeedup   float64 `json:"build_speedup"`
	EngineCountsNS int64   `json:"engine_counts_ns"`
	NaiveCountsNS  int64   `json:"naive_counts_ns"`
	CountsSpeedup  float64 `json:"counts_speedup"`

	// Hub ingest: K-source concurrent streaming through the federation
	// hub (BenchmarkHubIngest's workload at fixed scale).
	HubSources      int     `json:"hub_sources"`
	HubTuples       int     `json:"hub_tuples"`
	HubMatches      int     `json:"hub_matches"`
	HubClusters     int     `json:"hub_clusters"`
	HubIngestNS     int64   `json:"hub_ingest_ns"`
	HubTuplesPerSec float64 `json:"hub_tuples_per_sec"`

	// Streaming ingest: the same canonical workload through
	// IngestStream — per-item acks, same commit semantics — which must
	// hold up against the batch path; plus a 100k-tuple bulk stream
	// over a lazily generated single-source feed, whose peak heap growth
	// is the stream's memory story (the hub state itself plus two
	// bounded channels, never an O(stream) ingest queue).
	StreamIngestNS     int64   `json:"ingest_stream_ns"`
	StreamTuplesPerSec float64 `json:"ingest_stream_tuples_per_sec"`
	StreamBulkTuples   int     `json:"stream_bulk_tuples"`
	StreamBulkPerSec   float64 `json:"stream_bulk_tuples_per_sec"`
	StreamBulkPeakHeap int64   `json:"stream_bulk_peak_heap_bytes"`

	// WAL replay: recovery of the same hub workload from its
	// write-ahead log alone (no snapshot), i.e. cold-start cost per
	// logged record.
	ReplayRecords    int     `json:"replay_records"`
	ReplayNS         int64   `json:"replay_ns"`
	ReplayRecsPerSec float64 `json:"replay_recs_per_sec"`

	// Chunked snapshots (PR 4): bytes a snapshot writes when the whole
	// hub changed vs when ~1% of one source changed (unchanged sections
	// carry forward by reference), and recovery wall time from the
	// chunked snapshot (sections decoded in parallel).
	SnapFullBytes      int64   `json:"snap_full_bytes"`
	SnapIncrBytes      int64   `json:"snap_incr_bytes"`
	SnapIncrRatio      float64 `json:"snap_incr_ratio"`
	SnapSectionsReused int     `json:"snap_sections_reused"`
	RecoverChunkedNS   int64   `json:"recover_chunked_ns"`

	// Read-scalable serving (PR 5, BenchmarkHubServe's workload): point
	// cluster reads hammered while ingest streams continuously (the
	// withheld half of the workload, then synthetic singletons until the
	// readers finish). Reads take only per-shard/per-source locks, so
	// the multi-reader series scales with cores (the ratio is ~1 on a
	// 1-core runner), and the enumeration streams in bounded pages
	// instead of materialising the hub.
	ServeReaders         int     `json:"serve_readers"`
	ServeReadsPerSec1    float64 `json:"serve_reads_per_sec_1reader"`
	ServeReadsPerSec     float64 `json:"serve_reads_per_sec"`
	ServeReadScaling     float64 `json:"serve_read_scaling"`
	ServeIngestPerSec    float64 `json:"serve_ingest_tuples_per_sec"`
	ClustersStreamPerSec float64 `json:"clusters_stream_per_sec"`
	ClustersStreamPages  int     `json:"clusters_stream_pages"`

	// Degraded serving (PR 6): point reads against a hub whose disk is
	// failing (every write answers ENOSPC through the errfs injector, so
	// the hub is read-only with ingest rejected typedly). The read rate
	// should be of the same order as healthy single-reader serving —
	// degradation is not allowed to tax the read path.
	DegradedReadsPerSec float64 `json:"degraded_reads_per_sec"`

	// Observability overhead (PR 7): the hub ingest workload with the
	// obs clock disabled (baseline — counters still tick, histogram and
	// slow-op timing capture off) vs the fully instrumented default.
	// The ratio prices the observability plane; it must stay within a
	// few percent of 1.0.
	ObsBaselineNS      int64   `json:"obs_baseline_ingest_ns"`
	ObsInstrumentedNS  int64   `json:"obs_instrumented_ingest_ns"`
	ObsBaselineTPS     float64 `json:"obs_baseline_tuples_per_sec"`
	ObsInstrumentedTPS float64 `json:"obs_instrumented_tuples_per_sec"`
	ObsOverheadRatio   float64 `json:"obs_overhead_ratio"`

	// Admission control under synthetic overload: many more workers than
	// gate slots hammer the ingest gate; the shed rate is the fraction
	// turned away (each turned-away request is a fast 429, not a queue
	// entry), and admitted throughput is what got through the gate.
	OverloadWorkers  int     `json:"overload_workers"`
	OverloadCapacity int     `json:"overload_capacity"`
	OverloadAdmitted int64   `json:"overload_admitted"`
	OverloadShed     int64   `json:"overload_shed"`
	OverloadShedRate float64 `json:"overload_shed_rate"`

	// Disk storage backend (PR 9): the canonical hub workload on the
	// disk backend with hot tiers squeezed far below the working set.
	// Cold-read page-in latency is a full sequential scan's wall time
	// divided by the cluster records it paged back from the spill
	// tier; the hit rate is a second randomized sweep over the same
	// tier (hits and misses count only record-bearing nodes —
	// singletons never touch the tier).
	DiskColdPageIns     int64   `json:"disk_cold_read_pageins"`
	DiskColdPageInNS    int64   `json:"disk_cold_read_pagein_ns"`
	DiskHotHitRate      float64 `json:"disk_hot_hit_rate"`
	DiskHotEntries      int     `json:"disk_hot_entries"`
	DiskColdRecords     int     `json:"disk_cold_records"`
	DiskClusterBudget   int     `json:"disk_cluster_entry_budget"`
	DiskReadsPerSecCold float64 `json:"disk_reads_per_sec_coldscan"`
}

// runBenchJSON times matching-table construction and the full Figure 3
// sweep on the scale workload with the engine and with the naive
// reference, double-checks the two paths agree (a last-line defence
// behind the differential tests), and writes the JSON record.
func runBenchJSON(path string, w io.Writer) int {
	timeIt := func(f func()) int64 {
		start := time.Now()
		f()
		return time.Since(start).Nanoseconds()
	}
	best := func(runs int, f func()) int64 {
		b := timeIt(f)
		for n := 1; n < runs; n++ {
			if t := timeIt(f); t < b {
				b = t
			}
		}
		return b
	}

	engCfg := datagen.ScaleMatchConfig()
	naiveCfg := engCfg
	naiveCfg.Naive = true

	var engRes, naiveRes *match.Result
	var err error
	rec := benchRecord{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	// The engine is fast enough to take best-of-3; the naive reference
	// path is measured once (it is the slow side by orders of magnitude).
	rec.EngineBuildNS = best(3, func() {
		engRes, err = match.Build(engCfg)
	})
	if err != nil {
		fmt.Fprintf(w, "benchjson: engine build: %v\n", err)
		return 1
	}
	rec.NaiveBuildNS = timeIt(func() {
		naiveRes, err = match.Build(naiveCfg)
	})
	if err != nil {
		fmt.Fprintf(w, "benchjson: naive build: %v\n", err)
		return 1
	}

	var em, en, eu, nm, nn, nu int
	rec.EngineCountsNS = best(3, func() {
		em, en, eu = engRes.Counts()
	})
	rec.NaiveCountsNS = timeIt(func() {
		nm, nn, nu = naiveRes.Counts()
	})
	if engRes.MT.Len() != naiveRes.MT.Len() || em != nm || en != nn || eu != nu {
		fmt.Fprintf(w, "benchjson: engine and naive paths disagree: MT %d vs %d, counts (%d,%d,%d) vs (%d,%d,%d)\n",
			engRes.MT.Len(), naiveRes.MT.Len(), em, en, eu, nm, nn, nu)
		return 1
	}

	rec.RTuples = engRes.RPrime.Len()
	rec.STuples = engRes.SPrime.Len()
	rec.MTPairs = engRes.MT.Len()
	rec.DistinctRules = len(engRes.Distinct())
	rec.Matching, rec.NotMatching, rec.Undetermined = em, en, eu
	rec.BuildSpeedup = float64(rec.NaiveBuildNS) / float64(rec.EngineBuildNS)
	rec.CountsSpeedup = float64(rec.NaiveCountsNS) / float64(rec.EngineCountsNS)

	// Hub ingest: stream the canonical 4-source workload through the
	// federation hub's worker pool, best of 3.
	mw := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 4, Entities: 600, PresenceFrac: 0.6, HomonymRate: 0.1,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 2024,
	})
	items := hub.MultiInserts(mw)
	var hubErr error
	var lastHub *hub.Hub
	rec.HubIngestNS = best(3, func() {
		h, err := hub.NewFromMulti(mw)
		if err != nil {
			hubErr = err
			return
		}
		for _, res := range h.IngestBatch(items) {
			if res.Err != nil {
				hubErr = res.Err
				return
			}
		}
		lastHub = h
	})
	if hubErr != nil {
		fmt.Fprintf(w, "benchjson: hub ingest: %v\n", hubErr)
		return 1
	}
	hubStats := lastHub.Stats()
	rec.HubSources = hubStats.Sources
	rec.HubTuples = hubStats.Tuples
	rec.HubMatches = hubStats.Matches
	rec.HubClusters = hubStats.Clusters
	rec.HubTuplesPerSec = float64(len(items)) / (float64(rec.HubIngestNS) / 1e9)

	// Streaming ingest: the identical workload through IngestStream
	// with per-item results, best of 3.
	var pipeErr error
	rec.StreamIngestNS = best(3, func() {
		h, err := hub.NewFromMulti(mw)
		if err != nil {
			pipeErr = err
			return
		}
		in := make(chan hub.Insert, 256)
		go func() {
			defer close(in)
			for _, it := range items {
				in <- it
			}
		}()
		for res := range h.IngestStream(context.Background(), in, hub.StreamOptions{}) {
			if res.Err != nil {
				pipeErr = res.Err
				return
			}
		}
	})
	if pipeErr != nil {
		fmt.Fprintf(w, "benchjson: stream ingest: %v\n", pipeErr)
		return 1
	}
	rec.StreamTuplesPerSec = float64(len(items)) / (float64(rec.StreamIngestNS) / 1e9)

	// Bulk stream: 100k lazily generated single-source tuples — the
	// feeder materialises nothing, so peak heap is hub state plus the
	// stream's bounded channels. Sampled heap is a trajectory metric:
	// a regression to O(body) ingest buffering roughly doubles it.
	rec.StreamBulkTuples = 100_000
	bh := hub.New()
	if err := bh.AddSource("bulk", relation.New(schema.MustNew("bulk", []schema.Attribute{
		{Name: "id", Kind: value.KindString},
		{Name: "name", Kind: value.KindString},
	}, []string{"id"}))); err != nil {
		fmt.Fprintf(w, "benchjson: bulk stream: %v\n", err)
		return 1
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseHeap := ms.HeapAlloc
	peakHeap := baseHeap
	sampStop := make(chan struct{})
	var samp sync.WaitGroup
	samp.Add(1)
	go func() {
		defer samp.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampStop:
				return
			case <-tick.C:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peakHeap {
					peakHeap = m.HeapAlloc
				}
			}
		}
	}()
	bulkIn := make(chan hub.Insert, 256)
	go func() {
		defer close(bulkIn)
		for i := 0; i < rec.StreamBulkTuples; i++ {
			bulkIn <- hub.Insert{Source: "bulk", Tuple: relation.Tuple{
				value.String(fmt.Sprintf("bulk-%d", i)),
				value.String(fmt.Sprintf("entity %d", i)),
			}}
		}
	}()
	bulkStart := time.Now()
	var bulkErr error
	for res := range bh.IngestStream(context.Background(), bulkIn, hub.StreamOptions{}) {
		if res.Err != nil {
			bulkErr = res.Err
		}
	}
	bulkNS := time.Since(bulkStart).Nanoseconds()
	close(sampStop)
	samp.Wait()
	if bulkErr != nil {
		fmt.Fprintf(w, "benchjson: bulk stream: %v\n", bulkErr)
		return 1
	}
	rec.StreamBulkPerSec = float64(rec.StreamBulkTuples) / (float64(bulkNS) / 1e9)
	rec.StreamBulkPeakHeap = int64(peakHeap - baseHeap)

	// Observability overhead: the identical ingest, first with the obs
	// clock disabled and then fully instrumented, best of 5 each —
	// back-to-back so both sides see the same cache and GC state.
	ingestOnce := func() error {
		h, err := hub.NewFromMulti(mw)
		if err != nil {
			return err
		}
		for _, res := range h.IngestBatch(items) {
			if res.Err != nil {
				return res.Err
			}
		}
		return nil
	}
	var obsErr error
	obs.SetEnabled(false)
	rec.ObsBaselineNS = best(5, func() {
		if err := ingestOnce(); err != nil {
			obsErr = err
		}
	})
	obs.SetEnabled(true)
	rec.ObsInstrumentedNS = best(5, func() {
		if err := ingestOnce(); err != nil {
			obsErr = err
		}
	})
	if obsErr != nil {
		fmt.Fprintf(w, "benchjson: obs overhead: %v\n", obsErr)
		return 1
	}
	rec.ObsBaselineTPS = float64(len(items)) / (float64(rec.ObsBaselineNS) / 1e9)
	rec.ObsInstrumentedTPS = float64(len(items)) / (float64(rec.ObsInstrumentedNS) / 1e9)
	rec.ObsOverheadRatio = float64(rec.ObsInstrumentedNS) / float64(rec.ObsBaselineNS)

	// Mixed serving: point cluster reads race live ingest, once with a
	// single reader and once with GOMAXPROCS readers. The ingester
	// streams the withheld half of the workload, then keeps committing
	// fresh singleton tuples until the readers finish their quota, so
	// every timed read overlaps a live commit path; the reported ingest
	// rate is what ingest sustained under that read pressure.
	serveMixed := func(readers int) (readsPerSec, ingestPerSec float64, err error) {
		h, ing, err := hub.NewServeBench(mw)
		if err != nil {
			return 0, 0, err
		}
		names := h.SourceNames()
		// Large enough that the run spans many scheduler quanta — with a
		// small quota on few cores the ingester can fail to get a single
		// slice, and the "mixed" numbers would measure a quiescent hub.
		const totalReads = 400000
		quota := totalReads / readers
		readErrs := make([]error, readers)
		var wg sync.WaitGroup
		start := time.Now()
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + r)))
				for i := 0; i < quota; i++ {
					src := names[rng.Intn(len(names))]
					n, err := h.SourceLen(src)
					if err != nil {
						readErrs[r] = err
						return
					}
					if n == 0 {
						continue
					}
					if _, err := h.ClusterAt(src, rng.Intn(n)); err != nil {
						readErrs[r] = err
						return
					}
				}
			}(r)
		}
		wg.Wait()
		readNS := time.Since(start).Nanoseconds()
		ingested, ingestNS, err := ing.Stop()
		if err != nil {
			return 0, 0, err
		}
		for _, e := range readErrs {
			if e != nil {
				return 0, 0, e
			}
		}
		readsPerSec = float64(quota*readers) / (float64(readNS) / 1e9)
		ingestPerSec = float64(ingested) / (float64(ingestNS) / 1e9)
		return readsPerSec, ingestPerSec, nil
	}
	rec.ServeReaders = runtime.GOMAXPROCS(0)
	// Best of 3 per reader count: the mixed run is short, so scheduler
	// noise dominates single measurements (especially at 1 core).
	serveBest := func(readers int) (reads, ingest float64, err error) {
		for run := 0; run < 3; run++ {
			r, in, e := serveMixed(readers)
			if e != nil {
				return 0, 0, e
			}
			if r > reads {
				reads, ingest = r, in
			}
		}
		return reads, ingest, nil
	}
	r1, _, serveErr := serveBest(1)
	if serveErr != nil {
		fmt.Fprintf(w, "benchjson: serve (1 reader): %v\n", serveErr)
		return 1
	}
	rN, ingestPS, serveErr := serveBest(rec.ServeReaders)
	if serveErr != nil {
		fmt.Fprintf(w, "benchjson: serve (%d readers): %v\n", rec.ServeReaders, serveErr)
		return 1
	}
	rec.ServeReadsPerSec1, rec.ServeReadsPerSec = r1, rN
	rec.ServeReadScaling = rN / r1
	rec.ServeIngestPerSec = ingestPS

	// Streaming enumeration: walk the fully ingested hub one bounded
	// page at a time, best of 3.
	var streamErr error
	streamNS := best(3, func() {
		pages, clusters := 0, 0
		cursor := ""
		for {
			page, next, err := lastHub.ClustersPage(cursor, 128)
			if err != nil {
				streamErr = err
				return
			}
			pages++
			clusters += len(page)
			if next == "" {
				break
			}
			cursor = next
		}
		rec.ClustersStreamPages = pages
		rec.ClustersStreamPerSec = float64(clusters)
	})
	if streamErr != nil {
		fmt.Fprintf(w, "benchjson: clusters stream: %v\n", streamErr)
		return 1
	}
	rec.ClustersStreamPerSec = rec.ClustersStreamPerSec / (float64(streamNS) / 1e9)

	// WAL replay: write the canonical workload through a durable hub
	// (snapshots off, so recovery replays every record), then time
	// recovery, best of 3.
	walDir, err := os.MkdirTemp("", "entityid-benchreplay")
	if err != nil {
		fmt.Fprintf(w, "benchjson: %v\n", err)
		return 1
	}
	defer os.RemoveAll(walDir)
	dh, _, err := hub.Open(walDir, hub.Options{})
	if err != nil {
		fmt.Fprintf(w, "benchjson: durable hub: %v\n", err)
		return 1
	}
	for k, name := range mw.Names {
		if err := dh.AddSource(name, relation.New(mw.Relations[k].Schema())); err != nil {
			fmt.Fprintf(w, "benchjson: durable hub: %v\n", err)
			return 1
		}
	}
	for i := 0; i < len(mw.Names); i++ {
		for j := i + 1; j < len(mw.Names); j++ {
			if err := dh.Link(hub.SpecFromMultiPair(mw.Pair(i, j))); err != nil {
				fmt.Fprintf(w, "benchjson: durable hub: %v\n", err)
				return 1
			}
		}
	}
	for _, res := range dh.IngestBatch(items) {
		if res.Err != nil {
			fmt.Fprintf(w, "benchjson: durable ingest: %v\n", res.Err)
			return 1
		}
	}
	if err := dh.Close(); err != nil {
		fmt.Fprintf(w, "benchjson: durable hub: %v\n", err)
		return 1
	}
	var replayErr error
	rec.ReplayNS = best(3, func() {
		rh, info, err := hub.Open(walDir, hub.Options{})
		if err != nil {
			replayErr = err
			return
		}
		rec.ReplayRecords = info.Replayed
		if err := rh.Close(); err != nil {
			replayErr = err
		}
	})
	if replayErr != nil {
		fmt.Fprintf(w, "benchjson: replay: %v\n", replayErr)
		return 1
	}
	rec.ReplayRecsPerSec = float64(rec.ReplayRecords) / (float64(rec.ReplayNS) / 1e9)

	// Chunked snapshots: write a full snapshot, mutate ~1% of one
	// source, write an incremental one, and compare the bytes each put
	// on disk; then time recovery from the chunked snapshot.
	sh, _, err := hub.Open(walDir, hub.Options{})
	if err != nil {
		fmt.Fprintf(w, "benchjson: snapshot hub: %v\n", err)
		return 1
	}
	if err := sh.SnapshotNow(); err != nil {
		fmt.Fprintf(w, "benchjson: full snapshot: %v\n", err)
		return 1
	}
	full := sh.LastSnapshot()
	rec.SnapFullBytes = full.BytesWritten
	onePct := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 1, Entities: rec.HubTuples / 100, PresenceFrac: 1, Seed: 2025,
	})
	changed := 0
	for _, tup := range onePct.Relations[0].Tuples() {
		if _, err := sh.Insert(mw.Names[0], tup.Clone()); err == nil {
			changed++
		}
	}
	if changed == 0 {
		fmt.Fprintf(w, "benchjson: no incremental inserts landed\n")
		return 1
	}
	if err := sh.SnapshotNow(); err != nil {
		fmt.Fprintf(w, "benchjson: incremental snapshot: %v\n", err)
		return 1
	}
	incr := sh.LastSnapshot()
	rec.SnapIncrBytes = incr.BytesWritten
	rec.SnapSectionsReused = incr.SectionsReused
	rec.SnapIncrRatio = float64(rec.SnapIncrBytes) / float64(rec.SnapFullBytes)
	if err := sh.Close(); err != nil {
		fmt.Fprintf(w, "benchjson: %v\n", err)
		return 1
	}
	var snapErr error
	rec.RecoverChunkedNS = best(3, func() {
		rh, info, err := hub.Open(walDir, hub.Options{})
		if err != nil {
			snapErr = err
			return
		}
		if !info.FromSnapshot {
			snapErr = fmt.Errorf("chunked recovery ignored the snapshot")
		}
		if err := rh.Close(); err != nil && snapErr == nil {
			snapErr = err
		}
	})
	if snapErr != nil {
		fmt.Fprintf(w, "benchjson: snapshot recovery: %v\n", snapErr)
		return 1
	}

	// Degraded serving: stand up a durable hub on an injectable
	// filesystem, ingest the canonical workload, kill the disk (every
	// write ENOSPC), confirm ingest is rejected typedly, then time point
	// reads against the read-only hub.
	degDir, err := os.MkdirTemp("", "entityid-benchdegraded")
	if err != nil {
		fmt.Fprintf(w, "benchjson: %v\n", err)
		return 1
	}
	defer os.RemoveAll(degDir)
	fsErr := errfs.New(nil)
	gh, _, err := hub.Open(degDir, hub.Options{FS: fsErr})
	if err != nil {
		fmt.Fprintf(w, "benchjson: degraded hub: %v\n", err)
		return 1
	}
	for k, name := range mw.Names {
		if err := gh.AddSource(name, relation.New(mw.Relations[k].Schema())); err != nil {
			fmt.Fprintf(w, "benchjson: degraded hub: %v\n", err)
			return 1
		}
	}
	for i := 0; i < len(mw.Names); i++ {
		for j := i + 1; j < len(mw.Names); j++ {
			if err := gh.Link(hub.SpecFromMultiPair(mw.Pair(i, j))); err != nil {
				fmt.Fprintf(w, "benchjson: degraded hub: %v\n", err)
				return 1
			}
		}
	}
	for _, res := range gh.IngestBatch(items) {
		if res.Err != nil {
			fmt.Fprintf(w, "benchjson: degraded ingest: %v\n", res.Err)
			return 1
		}
	}
	fsErr.Inject(errfs.Rule{Op: errfs.OpWrite, Err: syscall.ENOSPC})
	fresh := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 1, Entities: 1, PresenceFrac: 1, Seed: 2026,
	})
	if _, err := gh.Insert(mw.Names[0], fresh.Relations[0].Tuples()[0].Clone()); !errors.Is(err, hub.ErrDegraded) {
		fmt.Fprintf(w, "benchjson: insert on failing disk = %v, want ErrDegraded\n", err)
		return 1
	}
	degNames := gh.SourceNames()
	const degradedReads = 200000
	var degReadErr error
	degNS := best(3, func() {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < degradedReads; i++ {
			src := degNames[rng.Intn(len(degNames))]
			n, err := gh.SourceLen(src)
			if err != nil {
				degReadErr = err
				return
			}
			if n == 0 {
				continue
			}
			if _, err := gh.ClusterAt(src, rng.Intn(n)); err != nil {
				degReadErr = err
				return
			}
		}
	})
	if degReadErr != nil {
		fmt.Fprintf(w, "benchjson: degraded reads: %v\n", degReadErr)
		return 1
	}
	rec.DegradedReadsPerSec = float64(degradedReads) / (float64(degNS) / 1e9)
	fsErr.Clear()
	gh.Close() // the log may still be poisoned mid-close; the dir is scratch

	// Overload shedding: 32 workers against a 4-slot gate, each admitted
	// request doing one point read as stand-in work.
	rec.OverloadWorkers, rec.OverloadCapacity = 32, 4
	gate := admit.New(rec.OverloadCapacity)
	var owg sync.WaitGroup
	for wk := 0; wk < rec.OverloadWorkers; wk++ {
		owg.Add(1)
		go func(wk int) {
			defer owg.Done()
			rng := rand.New(rand.NewSource(int64(500 + wk)))
			for i := 0; i < 2000; i++ {
				if !gate.TryAcquire() {
					continue
				}
				src := degNames[rng.Intn(len(degNames))]
				if n, err := lastHub.SourceLen(src); err == nil && n > 0 {
					lastHub.ClusterAt(src, rng.Intn(n))
				}
				// Yield while holding the slot so requests genuinely
				// overlap even on a single-core runner — otherwise each
				// admission completes within one scheduler slice and the
				// gate never fills.
				runtime.Gosched()
				gate.Release()
			}
		}(wk)
	}
	owg.Wait()
	rec.OverloadAdmitted, rec.OverloadShed = gate.Counts()
	rec.OverloadShedRate = float64(rec.OverloadShed) / float64(rec.OverloadAdmitted+rec.OverloadShed)

	// Disk backend tiers: the canonical workload again, on the disk
	// backend with the cluster hot tier squeezed far below the working
	// set so reads constantly spill and page back.
	diskDir, err := os.MkdirTemp("", "entityid-benchdisk")
	if err != nil {
		fmt.Fprintf(w, "benchjson: %v\n", err)
		return 1
	}
	defer os.RemoveAll(diskDir)
	th, _, err := hub.Open(diskDir, hub.Options{Store: "disk", HotClusterEntries: 128, HotPairs: 1})
	if err != nil {
		fmt.Fprintf(w, "benchjson: disk hub: %v\n", err)
		return 1
	}
	for k, name := range mw.Names {
		if err := th.AddSource(name, relation.New(mw.Relations[k].Schema())); err != nil {
			fmt.Fprintf(w, "benchjson: disk hub: %v\n", err)
			return 1
		}
	}
	for i := 0; i < len(mw.Names); i++ {
		for j := i + 1; j < len(mw.Names); j++ {
			if err := th.Link(hub.SpecFromMultiPair(mw.Pair(i, j))); err != nil {
				fmt.Fprintf(w, "benchjson: disk hub: %v\n", err)
				return 1
			}
		}
	}
	for _, res := range th.IngestBatch(items) {
		if res.Err != nil {
			fmt.Fprintf(w, "benchjson: disk ingest: %v\n", res.Err)
			return 1
		}
	}
	diskNames := th.SourceNames()
	scan := func() (reads int64, err error) {
		for _, src := range diskNames {
			n, serr := th.SourceLen(src)
			if serr != nil {
				return reads, serr
			}
			for i := 0; i < n; i++ {
				if _, cerr := th.ClusterAt(src, i); cerr != nil {
					return reads, cerr
				}
				reads++
			}
		}
		return reads, nil
	}
	// One warm-up pass leaves the LRU tail resident, then the timed
	// sequential pass pages essentially the whole record set back in.
	if _, err := scan(); err != nil {
		fmt.Fprintf(w, "benchjson: disk scan: %v\n", err)
		return 1
	}
	before := th.StoreInfo().Clusters
	var scanReads int64
	var scanErr error
	scanNS := timeIt(func() { scanReads, scanErr = scan() })
	if scanErr != nil {
		fmt.Fprintf(w, "benchjson: disk scan: %v\n", scanErr)
		return 1
	}
	after := th.StoreInfo().Clusters
	rec.DiskColdPageIns = after.PageIns - before.PageIns
	if rec.DiskColdPageIns > 0 {
		rec.DiskColdPageInNS = scanNS / rec.DiskColdPageIns
	}
	rec.DiskReadsPerSecCold = float64(scanReads) / (float64(scanNS) / 1e9)
	// Randomized sweep for the steady-state hit rate at this
	// budget-to-working-set ratio.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50000; i++ {
		src := diskNames[rng.Intn(len(diskNames))]
		if n, err := th.SourceLen(src); err == nil && n > 0 {
			th.ClusterAt(src, rng.Intn(n))
		}
	}
	final := th.StoreInfo().Clusters
	if probes := (final.Hits - after.Hits) + (final.Misses - after.Misses); probes > 0 {
		rec.DiskHotHitRate = float64(final.Hits-after.Hits) / float64(probes)
	}
	rec.DiskHotEntries = final.HotEntries
	rec.DiskColdRecords = final.ColdRecords
	rec.DiskClusterBudget = final.Budget
	if err := th.Close(); err != nil {
		fmt.Fprintf(w, "benchjson: disk hub: %v\n", err)
		return 1
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(w, "benchjson: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(w, "benchjson: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "wrote %s: build %.1fx, counts %.1fx (engine vs naive, %d×%d grid, GOMAXPROCS=%d); hub ingest %.0f tuples/sec (%d sources); stream ingest %.0f tuples/sec, %d-tuple bulk stream %.0f tuples/sec at +%.1f MiB peak heap; obs overhead %.1f%% (%.0f instrumented vs %.0f baseline tuples/sec); serving reads %.0f/sec at %d readers (%.2fx vs 1 reader) with ingest at %.0f tuples/sec; clusters stream %.0f/sec over %d pages; WAL replay %.0f records/sec (%d records); snapshot 1%%-changed writes %.1f%% of full (%d of %d bytes, %d sections reused); chunked recovery %.1fms; degraded reads %.0f/sec on a dead disk; overload shed %.0f%% (%d workers vs %d slots)\n",
		path, rec.BuildSpeedup, rec.CountsSpeedup, rec.RTuples, rec.STuples, rec.GoMaxProcs,
		rec.HubTuplesPerSec, rec.HubSources,
		rec.StreamTuplesPerSec, rec.StreamBulkTuples, rec.StreamBulkPerSec, float64(rec.StreamBulkPeakHeap)/(1<<20),
		100*(rec.ObsOverheadRatio-1), rec.ObsInstrumentedTPS, rec.ObsBaselineTPS,
		rec.ServeReadsPerSec, rec.ServeReaders, rec.ServeReadScaling, rec.ServeIngestPerSec,
		rec.ClustersStreamPerSec, rec.ClustersStreamPages,
		rec.ReplayRecsPerSec, rec.ReplayRecords,
		100*rec.SnapIncrRatio, rec.SnapIncrBytes, rec.SnapFullBytes, rec.SnapSectionsReused,
		float64(rec.RecoverChunkedNS)/1e6,
		rec.DegradedReadsPerSec, 100*rec.OverloadShedRate, rec.OverloadWorkers, rec.OverloadCapacity)
	fmt.Fprintf(w, "disk store: cold page-in %.1fµs avg over %d page-ins (%.0f reads/sec full cold scan), hot hit rate %.1f%% at %d/%d resident entries (%d cold records)\n",
		float64(rec.DiskColdPageInNS)/1e3, rec.DiskColdPageIns, rec.DiskReadsPerSecCold,
		100*rec.DiskHotHitRate, rec.DiskHotEntries, rec.DiskClusterBudget, rec.DiskColdRecords)
	return 0
}
