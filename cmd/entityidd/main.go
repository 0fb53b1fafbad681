// Command entityidd serves a multi-source entity-identification hub
// over HTTP with JSON/NDJSON bodies: register autonomous sources, link
// source pairs with their correspondences, extended keys, ILFDs and
// identity rules, stream tuple inserts, and query global entity
// clusters and merged cross-source records.
//
// Usage:
//
//	entityidd -addr :8080                 # serve, in-memory only
//	entityidd -addr :8080 -data-dir /var/lib/entityidd
//	                                      # serve durably (WAL + snapshots)
//
// # Durability and crash recovery
//
// With -data-dir, every committed mutation (source registration, link,
// insert) is appended to a CRC-guarded write-ahead log in the data
// directory before it is acknowledged, and every -snapshot-every
// committed inserts a background snapshot is written atomically and
// the log truncated. On start the server loads the snapshot, replays
// the log tail, and serves exactly the pre-crash state: acknowledged
// inserts are never lost, rejected inserts never reappear, and a torn
// final write (a crash mid-append) is detected by checksum and
// dropped. SIGINT/SIGTERM close the hub cleanly; a kill -9 merely
// means the next start replays a longer log tail.
//
// Snapshots are chunked and incremental: the data directory holds a
// manifest — each source's schema, each link and the source lengths it
// was cut at — plus, per source, files of 1024 tuples in commit order;
// matching tables and clusters are rebuilt from the tuples on start. A
// full file never changes and carries forward untouched, so a snapshot
// costs what was inserted since the last one, not what the hub holds,
// and hubs of any size snapshot without hitting a single-record ceiling. Against power loss (where
// the page cache itself is forfeit), -sync-every N additionally fsyncs
// the log every N appends, with every insert stream batching the
// remainder into one sync per flush epoch (each time its input runs
// empty, and before its end is reported).
//
// # Serving
//
// The listener is a configured http.Server: request headers must
// arrive within a deadline (slowloris guard), bodies are size-capped
// (-max-insert-body for ingest, a fixed 1MB for control requests), and
// SIGINT/SIGTERM drain in-flight requests (refusing new connections)
// before the hub is closed — checkpointed first when -snapshot-every is
// 0, so the next start replays nothing.
//
// API (all bodies JSON; /v1/insert and /v1/clusters stream NDJSON):
//
//	POST /v1/sources   {"name":"zagat","attrs":[{"name":"name","kind":"string"},...],"key":["name","street"]}
//	POST /v1/links     {"left":"zagat","right":"michelin",
//	                    "attrs":[{"name":"name","left":"name","right":"name"},...],
//	                    "extkey":["name","cuisine"],
//	                    "ilfds":["speciality=hunan -> cuisine=chinese"],
//	                    "identity":[{"name":"name-phone","eq":["name","phone"]}]}
//	POST /v1/insert    NDJSON stream of {"source":"zagat","tuple":["VillageWok","Wash.Ave.",null,"612-1234"]}
//	                   → NDJSON per line: {"ok":true,"index":0,"matched":[...],"cluster":{...}}
//	GET  /v1/cluster?source=zagat&key=VillageWok&key=Wash.Ave.[&merge=coalesce]
//	GET  /v1/clusters[?merge=coalesce&limit=N&offset=N&cursor=ID]
//	                   NDJSON stream, one cluster per line; limit > 0
//	                   paginates (a final {"next_cursor":ID} line marks a
//	                   truncated page), omitted or 0 streams everything
//	GET  /v1/stats
//	GET  /healthz
//	GET  /readyz
//
// Attribute kinds are string (default), int, float, bool. Tuple values
// are JSON scalars matching the declared kind; null means NULL (a
// string is parsed as the kind, which is how a float NaN or ±Inf gets
// in — and how it is rendered back, JSON having no such number). JSON
// numbers pass through float64, which is exact only up to ±2^53:
// larger int values that survived the round-trip intact are accepted,
// anything non-integral or beyond the int64 range is rejected.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"entityid"
	"entityid/internal/admit"
	ihub "entityid/internal/hub"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		dataDir       = flag.String("data-dir", "", "directory for the write-ahead log and snapshots (empty: in-memory only)")
		snapEvery     = flag.Int("snapshot-every", 1024, "committed inserts between background snapshots, each of which writes what was inserted since the last one, not the hub (0: only on shutdown)")
		syncEvery     = flag.Int("sync-every", 0, "fsync the write-ahead log every N appends and at every ingest flush epoch — when an insert stream's input runs empty and before its results end (0: leave durability between snapshots to the page cache)")
		maxInsertBody = flag.Int64("max-insert-body", defaultMaxInsertBody, "largest /v1/insert request body in bytes (0: unlimited)")
		ingestConc    = flag.Int("ingest-concurrency", 64, "max concurrent /v1/insert requests; excess is shed with 429 + Retry-After (0: unlimited)")
		debugAddr     = flag.String("debug-addr", "", "operator-only listen address serving /metrics, /debug/slow, /debug/check and /debug/pprof (empty: disabled; pprof is never on the main port)")
		storeName     = flag.String("store", "", "storage backend, with -data-dir: mem keeps every cluster record resident, disk spills cold cluster records under the data dir; pair tables stay resident on both (empty: mem)")
		storeHotClus  = flag.Int("store-hot-clusters", 0, "with -store disk: max resident cluster members before cold records spill (0: the default)")
	)
	flag.Parse()
	if err := checkFlags(*dataDir, *storeName, *storeHotClus, *snapEvery, *syncEvery, *ingestConc, *maxInsertBody); err != nil {
		log.Fatalf("entityidd: %v", err)
	}
	hub := entityid.NewHub()
	durable := *dataDir != ""
	if durable {
		var err error
		hub, err = entityid.OpenHub(*dataDir,
			entityid.WithSnapshotEvery(*snapEvery), entityid.WithSyncEvery(*syncEvery),
			entityid.WithStore(*storeName), entityid.WithStoreBudgets(*storeHotClus))
		if err != nil {
			log.Fatalf("entityidd: %v", err)
		}
		st, ri := hub.Stats(), hub.Recovery()
		log.Printf("entityidd: recovered %d sources, %d links, %d tuples, %d clusters from %s (store: %s) in run decode %v, log read %v (%.1f MiB, %d records), pair build %v (%d images, %d pairings), cluster fold %v",
			st.Sources, st.Pairs, st.Tuples, st.Clusters, *dataDir, hub.StoreInfo().Backend,
			ri.DecodeTime.Round(time.Microsecond), ri.ReplayTime.Round(time.Microsecond), float64(ri.LogBytes)/(1<<20), ri.Replayed,
			ri.RestoreTime.Round(time.Microsecond), ri.Images, ri.Pairings, ri.FoldTime.Round(time.Microsecond))
		if ri.TailDamage != "" {
			log.Printf("entityidd: WARNING: damaged log tail dropped during recovery (unacknowledged writes discarded): %s", ri.TailDamage)
		}
	}
	srv := newServerFor(hub)
	srv.maxInsertBody = *maxInsertBody
	srv.gate = admit.New(*ingestConc)
	ihub.SlowOps.SetThreshold(slowOpThreshold)
	if *debugAddr != "" {
		dbg, dbgAddr, err := startDebugServer(*debugAddr, hub.CheckInvariants)
		if err != nil {
			log.Fatalf("entityidd: %v", err)
		}
		defer dbg.Close()
		log.Printf("entityidd: debug listener (metrics, slow-ops, invariant check, pprof) on %s", dbgAddr)
	}
	// inflight counts handlers between entry and return, so shutdown
	// can hold the hub open until the last one is truly out — even when
	// the drain timeout forces connections closed under them.
	var inflight sync.WaitGroup
	httpSrv := &http.Server{
		Addr: *addr,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			inflight.Add(1)
			defer inflight.Done()
			srv.ServeHTTP(w, r)
		}),
		// Slowloris guard: request headers must arrive promptly. Bodies
		// get no global deadline — NDJSON ingest streams legitimately —
		// but are size-capped per handler.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("entityidd: serving on %s", *addr)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("entityidd: %v", err)
	case s := <-sig:
		// Drain before the hub goes away: stop accepting, let in-flight
		// requests finish (bounded by drainTimeout; past it their
		// connections are severed so they unblock), then wait for the
		// last handler to actually return — a handler can never observe
		// a closed hub.
		log.Printf("entityidd: %v: draining in-flight requests", s)
		// Flip /readyz to draining and start shedding new ingest before
		// the listener stops: a load balancer polling readiness sees the
		// drain as soon as it starts.
		srv.draining.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("entityidd: drain: %v (severing connections)", err)
			httpSrv.Close()
		}
		cancel()
		inflight.Wait()
		if durable {
			// With automatic snapshots disabled, take the promised
			// shutdown snapshot so the next start replays nothing.
			if *snapEvery <= 0 {
				if err := hub.Checkpoint(); err != nil {
					log.Printf("entityidd: shutdown snapshot: %v", err)
				}
			}
			if err := hub.Close(); err != nil {
				log.Printf("entityidd: close: %v", err)
				os.Exit(1)
			}
			log.Printf("entityidd: hub closed cleanly")
		}
	}
}

// checkFlags refuses a flag set that would otherwise start and quietly
// not do what it says: a flag the chosen configuration never looks at,
// or a value that would be replaced by a default.
func checkFlags(dataDir, storeName string, storeHotClusters, snapEvery, syncEvery, ingestConc int, maxInsertBody int64) error {
	// Each of these has one way to say "off", 0; a negative value is a
	// typo, not a request to drop snapshots, the power-loss fsync or the
	// DoS guard.
	switch {
	case maxInsertBody < 0:
		return errors.New("-max-insert-body must be >= 0 (0 disables the cap)")
	case snapEvery < 0:
		return errors.New("-snapshot-every must be >= 0 (0 snapshots only on shutdown)")
	case syncEvery < 0:
		return errors.New("-sync-every must be >= 0 (0 leaves durability between snapshots to the page cache)")
	case ingestConc < 0:
		return errors.New("-ingest-concurrency must be >= 0 (0 disables the limit)")
	case storeName != "" && storeName != "mem" && storeName != "disk":
		return fmt.Errorf("-store must be mem or disk (got %q)", storeName)
	case storeHotClusters < 0:
		return errors.New("-store-hot-clusters must be >= 0 (0 keeps the default)")
	case dataDir == "" && (storeName != "" || storeHotClusters != 0):
		return errors.New("-store and -store-hot-clusters need -data-dir (without one the hub is in memory only and has no store to choose)")
	case storeHotClusters != 0 && storeName != "disk":
		return errors.New("-store-hot-clusters needs -store disk (the resident store has no budget)")
	}
	return nil
}

const (
	// maxControlBody caps /v1/sources and /v1/links request bodies:
	// control-plane payloads are small by construction.
	maxControlBody = 1 << 20
	// defaultMaxInsertBody caps /v1/insert bodies unless -max-insert-body
	// overrides it.
	defaultMaxInsertBody = 64 << 20
	// clustersWriteBytes is how much of a /v1/clusters stream is rendered
	// before it is written and flushed: enough lines that a write costs
	// next to nothing per cluster, few enough that a long enumeration
	// still streams.
	clustersWriteBytes = 32 << 10
	// insertFlushEvery bounds how many /v1/insert ack lines buffer
	// before an explicit flush during a sustained bulk load; when the
	// request body trickles, acks flush as soon as the decoder idles.
	insertFlushEvery = 64
	// drainTimeout is how long shutdown waits for in-flight requests to
	// finish before their connections are severed.
	drainTimeout = 15 * time.Second
	// slowOpThreshold: commits slower than this are recorded with
	// per-stage timings at /debug/slow.
	slowOpThreshold = 100 * time.Millisecond
	// directInsertMax is the largest declared-length /v1/insert body that
	// is read whole to see whether it is one line (handleInsert) — the
	// size the stream decoder's line buffer starts at.
	directInsertMax = 4096
)
