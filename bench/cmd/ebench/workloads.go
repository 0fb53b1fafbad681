package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"entityid/bench/gen"
	"entityid/bench/plan"
)

const (
	ctlTimeout = 10 * time.Second // one control-plane request
	phaseGrace = 20 * time.Second // how far past its window a phase may run before the daemon counts as hung
	startLimit = 60 * time.Second // daemon exec to ready, recovery included
)

// runConfig is what one run needs besides its workload.
type runConfig struct {
	daemonBin string
	golden    string // golden file
	tmp       string // where data directories go: inside the checkout
	seed      int64
	seconds   int
	conns     int
	probe     bool // run the per-layer read probe after the scans
	logf      func(format string, a ...any)
}

// measured is what one run observed, before it is shaped into metrics.
type measured struct {
	wl     *plan.Workload
	tally  tally
	tuples int // lines sent = acknowledged, when correct
	userB  int64

	// box reads the box's speed all through the run, beside everything
	// that is timed; the end-to-end metrics are the wall-clock readings
	// below scaled by its mean (see cal.go).
	box speedometer

	// Set-up and recovery are timed whole, setupReps and plan.Recoveries
	// times in a row; their metrics are the medians.
	setupWall, recoverWall []float64 // seconds

	// The timed phases, their slices added up.
	ingest    ingestResult // lat is empty: ingestLat keeps each slice's
	ingestLat []samples    // single-line round trips, one entry per slice
	reads     []readResult // one per connection and slice
	readConns int          // connections reading at once
	scanLines int64
	scanWall  time.Duration

	sRecovered scrape        // after the last restart
	recovered  time.Duration // the last restart's recovery
	diskB      int64
	gate       []string
	stats      hubStats
	part       partition
	input      string

	// What the daemon's /metrics and /proc moved by over each kind of
	// phase, and where they stood around the timed rounds.
	sumIngest, sumReads, sumScans phaseSum
	oStart, oEnd                  observation
	oIngested                     observation // after the last ingest slice
	sProbe                        scrape      // after the post-scan read probe; oEnd's when there was none
	clientCPU                     float64
	wall                          time.Duration
	recall                        float64
	tierBytes                     int64
	ingestUserB                   int64 // user bytes of the ingest window
	nproc                         int
	entities, setupLines          int
	window                        time.Duration
}

// clientShare is the share of the machine the driver itself used.
func (m *measured) clientShare() float64 {
	return m.clientCPU / m.wall.Seconds() / float64(m.nproc)
}

// run drives one workload once and returns what it observed. The
// daemon is killed on every path out.
func run(cfg runConfig, wl *plan.Workload) (m *measured, err error) {
	t0 := time.Now()
	cpu0 := selfCPU()
	E, window := wl.Size(cfg.seconds)
	w := gen.Generate(cfg.seed, E)
	tr := newTruth(w)
	n := len(w.Tuples)
	nWarm := int(float64(n) * wl.Warm)
	m = &measured{wl: wl, tuples: n, userB: w.UserBytes(0, n), ingestUserB: w.UserBytes(nWarm, n),
		input: w.Digest(), nproc: runtime.NumCPU(), entities: E, setupLines: nWarm, window: window,
		box: speedometer{cores: cfg.conns, burst: burstFor(cfg.seconds)}}
	cfg.logf("%s: seed %d, E=%d, %d tuples (%d in set-up), window %v in %d slices", wl.Name, cfg.seed, E, n, nWarm, window, plan.Rounds)

	readReqs := make([][]byte, n)
	for i := range readReqs {
		readReqs[i] = renderGet(w.ReadPath(i))
	}

	flags := wl.Flags()

	// Set-up, setupReps times over; the last daemon is the one measured.
	var d *daemon
	var dir string
	var warm ingestResult
	discard := func() error {
		d.kill()
		track(nil, dir, false)
		return os.RemoveAll(dir)
	}
	defer discard()
	m.box.read(longRead)
	for rep := 0; rep < setupReps; rep++ {
		if err := discard(); err != nil {
			return nil, err
		}
		var ctl tally
		d, dir, ctl, warm, err = setUp(cfg.daemonBin, cfg.tmp, flags, w, nWarm, phaseGrace+window)
		m.tally.add(ctl)
		m.tally.add(warm.tally)
		if err != nil {
			return nil, err
		}
		m.setupWall = append(m.setupWall, time.Since(d.start).Seconds())
		if err := d.waitIdle(phaseGrace); err != nil {
			return nil, err
		}
		m.box.read(longRead)
	}
	cfg.logf("  set-up in %v s (%d tuples streamed)", m.setupWall, nWarm)

	if err := m.rounds(cfg, d, w, nWarm, readReqs); err != nil {
		return nil, err
	}
	acked := warm.acked + m.ingest.acked
	for _, r := range m.reads {
		for _, rep := range r.replies {
			if err := tr.checkReply(w, rep.tuple, rep.body); err != nil {
				m.gate = append(m.gate, err.Error())
				break
			}
		}
	}
	m.tierBytes, _ = dirBytes(dir + "/storetier") // absent under -store mem

	// Layer probe: point reads straight after the scans show whether a
	// scan flushed the hot tier. No end-to-end metric reads it.
	m.sProbe = m.oEnd.s
	if cfg.probe {
		probe, err := pointReads(d.addr, readReqs, plan.ZipfKeys(cfg.seed, n), time.Now().Add(window/4), nil)
		m.tally.add(probe.tally)
		if err != nil {
			return nil, err
		}
		if m.sProbe, err = fetchScrape(d.addr); err != nil {
			return nil, err
		}
	}

	// Gate: the served partition before kill -9 ...
	before, err := fetchPartition(d.addr, tr)
	if err != nil {
		m.gate = append(m.gate, err.Error())
	}
	m.part = before
	if tp := truePairs(w, n); tp > 0 {
		m.recall = float64(before.Pairs) / float64(tp)
	}

	// ... kill -9, restart on the same directory, ready with every
	// acknowledged tuple, plan.Recoveries times over ...
	if err := d.waitIdle(phaseGrace); err != nil {
		return nil, err
	}
	m.box.read(longRead)
	for rep := 0; rep < plan.Recoveries; rep++ {
		d.kill()
		if d, err = startDaemon(cfg.daemonBin, dir, flags); err != nil {
			return nil, err
		}
		if m.recovered, err = d.waitReady(acked, startLimit); err != nil {
			return nil, err
		}
		m.recoverWall = append(m.recoverWall, m.recovered.Seconds())
		if err := d.waitIdle(phaseGrace); err != nil {
			return nil, err
		}
		m.box.read(longRead)
	}
	cfg.logf("  recovered in %v s; box speed %.3f of the reference, the mean of %d readings from %.3f to %.3f",
		m.recoverWall, m.box.mean(), len(m.box.readings), slices.Min(m.box.readings), slices.Max(m.box.readings))
	if m.sRecovered, err = fetchScrape(d.addr); err != nil {
		return nil, err
	}
	if m.diskB, err = dirBytes(dir); err != nil {
		return nil, err
	}
	// ... and the same partition after.
	after, err := fetchPartition(d.addr, tr)
	if err != nil {
		m.gate = append(m.gate, err.Error())
	}
	g, err := loadGolden(cfg.golden, wl.Name, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	m.gate = append(m.gate, gate(gateInput{
		sent: n, acked: acked, stats: m.stats, before: before, after: after,
		golden: g, inputDigest: m.input,
	})...)
	m.clientCPU = selfCPU() - cpu0
	m.wall = time.Since(t0)
	return m, nil
}

// rounds drives the timed phases: plan.Rounds times over, ingest the
// next share of the tuples left after set-up, then read, then scan,
// each for its share of the window. The live workload reads beside its
// inserts instead of after them. After every slice, once the daemon is
// idle, the box's speed is read.
func (m *measured) rounds(cfg runConfig, d *daemon, w *gen.Workload, nWarm int, readReqs [][]byte) error {
	n := len(w.Lines)
	slice := m.window/plan.Rounds - m.box.burst
	limit := phaseGrace + 4*m.window
	prev, err := observe(d)
	if err != nil {
		return err
	}
	m.oStart = prev
	// mark closes a phase slice: what the daemon did since the last mark
	// goes to that kind of phase.
	mark := func(sum *phaseSum) error {
		if err := d.waitIdle(phaseGrace); err != nil {
			return err
		}
		cur, err := observe(d)
		if err != nil {
			return err
		}
		sum.add(prev, cur)
		prev = cur
		m.box.read(1)
		return nil
	}
	m.readConns = cfg.conns
	if m.wl.Live {
		m.readConns = 1
	}
	for r := 0; r < plan.Rounds; r++ {
		lo := nWarm + (n-nWarm)*r/plan.Rounds
		hi := nWarm + (n-nWarm)*(r+1)/plan.Rounds

		// Ingest slice.
		var in ingestResult
		if m.wl.Live {
			var rd readResult
			in, rd, err = liveSlice(d.addr, w.Lines[lo:hi], readReqs, plan.UniformKeys(cfg.seed+int64(r), lo), limit)
			m.tally.add(rd.tally)
			m.reads = append(m.reads, rd)
		} else {
			in, err = streamIngest(d.addr, w.Lines[lo:hi], limit)
		}
		m.tally.add(in.tally)
		if err != nil {
			return err
		}
		m.ingest.wall += in.wall
		m.ingest.acked += in.acked
		m.ingest.ackBytes += in.ackBytes
		m.ingestLat = append(m.ingestLat, in.lat)
		cfg.logf("  round %d: ingest %d tuples in %.3fs", r+1, in.acked, in.wall.Seconds())
		if err := mark(&m.sumIngest); err != nil {
			return err
		}
		m.oIngested = prev

		// Point-read slice (the live workload read beside its writes).
		if !m.wl.Live {
			picks := make([]plan.KeyPicker, cfg.conns)
			for i := range picks {
				picks[i] = plan.ZipfKeys(cfg.seed+int64(r*cfg.conns+i), hi)
			}
			deadline := time.Now().Add(slice)
			rds, err := onConns(cfg.conns, func(i int) (readResult, error) {
				return pointReads(d.addr, readReqs, picks[i], deadline, nil)
			})
			for _, rd := range rds {
				m.tally.add(rd.tally)
			}
			if err != nil {
				return err
			}
			m.reads = append(m.reads, rds...)
			if err := mark(&m.sumReads); err != nil {
				return err
			}
		}

		// Scan slice.
		ctlc, err := dial(d.addr, ctlTimeout)
		if err != nil {
			return err
		}
		_ = ctlc.c.SetDeadline(time.Now().Add(ctlTimeout)) // a failure shows as an error on the write
		m.stats, err = fetchStats(ctlc)
		ctlc.close()
		if err != nil {
			return err
		}
		deadline := time.Now().Add(slice)
		scs, err := onConns(cfg.conns, func(int) (scanResult, error) {
			return scans(d.addr, m.stats.Clusters, deadline)
		})
		var wall time.Duration
		for _, sc := range scs {
			m.tally.add(sc.tally)
			m.scanLines += sc.lines
			wall = max(wall, sc.wall)
		}
		if err != nil {
			return err
		}
		m.scanWall += wall
		if err := mark(&m.sumScans); err != nil {
			return err
		}
	}
	m.oEnd = prev
	return nil
}

// liveSlice sends lines one per POST on one connection while a second
// connection reads committed keys until the writer is done.
func liveSlice(addr string, lines, readReqs [][]byte, pick plan.KeyPicker, limit time.Duration) (ingestResult, readResult, error) {
	stop := make(chan struct{})
	far := time.Now().Add(limit) // the reader stops when the writer is done, well before this
	rdone := make(chan struct{})
	var rd readResult
	var rerr error
	go func() {
		defer close(rdone)
		rd, rerr = pointReads(addr, readReqs, pick, far, stop)
	}()
	in, err := liveInserts(addr, lines, limit)
	close(stop)
	<-rdone
	if err == nil {
		err = rerr
	}
	return in, rd, err
}

// longRead is how many bursts long the box's speed is read before and
// after a set-up or a recovery: these are timed whole, seconds at a
// time with no reading inside them, and together they are a third of
// the run, so the few readings beside them are made to count for more.
const longRead = 2

// setupReps is how many times a run sets up: set-up is short, so one
// reading of it is noisy; the run reports the median.
const setupReps = 3

// setUp is the set-up phase: exec the daemon on a fresh directory,
// wait until it is ready, declare the schema, and stream the first
// nWarm tuples until they are acknowledged.
func setUp(bin, tmp string, flags []string, w *gen.Workload, nWarm int, limit time.Duration) (d *daemon, dir string, ctl tally, warm ingestResult, err error) {
	if dir, err = os.MkdirTemp(tmp, "ebench-"); err != nil {
		return nil, "", ctl, warm, err
	}
	track(nil, dir, true)
	if d, err = startDaemon(bin, dir, flags); err != nil {
		return nil, dir, ctl, warm, err
	}
	if _, err = d.waitReady(-1, startLimit); err != nil {
		return d, dir, ctl, warm, err
	}
	if ctl, err = register(d.addr, w); err != nil {
		return d, dir, ctl, warm, err
	}
	warm, err = streamIngest(d.addr, w.Lines[:nWarm], limit)
	return d, dir, ctl, warm, err
}

// observation is the daemon's /metrics and /proc at a phase boundary.
type observation struct {
	s scrape
	p procSample
}

func observe(d *daemon) (observation, error) {
	s, err := fetchScrape(d.addr)
	if err != nil {
		return observation{}, err
	}
	p, err := sampleProc(d.pid())
	return observation{s, p}, err
}

// phaseSum adds up how far the daemon's /metrics and /proc moved over
// the slices of one kind of phase.
type phaseSum struct {
	s          scrape  // every series' summed movement
	cpu        float64 // seconds
	writeBytes float64 // negative when /proc/<pid>/io is not readable
}

func (ps *phaseSum) add(a, b observation) {
	if ps.s == nil {
		ps.s = scrape{}
	}
	for series, v := range b.s {
		ps.s[series] += v - a.s[series]
	}
	ps.cpu += b.p.cpu - a.p.cpu
	if b.p.writeBytes < 0 {
		ps.writeBytes = -1
	} else if ps.writeBytes >= 0 {
		ps.writeBytes += b.p.writeBytes - a.p.writeBytes
	}
}

// register declares the sources and links.
func register(addr string, w *gen.Workload) (tally, error) {
	var t tally
	c, err := dial(addr, ctlTimeout)
	if err != nil {
		return t, err
	}
	defer c.close()
	_ = c.c.SetDeadline(time.Now().Add(ctlTimeout)) // a failure shows as an error on the first write
	post := func(path string, v any) error {
		body, err := json.Marshal(v)
		if err != nil {
			return err
		}
		t.attempted++
		status, reply, err := c.do(renderPost(path, "application/json", body), nil)
		if err != nil || status != 201 {
			t.failed++
			return fmt.Errorf("POST %s: status %d, %s: %v", path, status, reply, err)
		}
		return nil
	}
	for _, s := range w.Sources {
		if err := post("/v1/sources", s); err != nil {
			return t, err
		}
	}
	for _, l := range w.Links {
		if err := post("/v1/links", l); err != nil {
			return t, err
		}
	}
	return t, nil
}

// fetchPartition reads all of /v1/clusters and checks it.
func fetchPartition(addr string, tr *truth) (partition, error) {
	c, err := dial(addr, ctlTimeout)
	if err != nil {
		return partition{}, err
	}
	defer c.close()
	_ = c.c.SetDeadline(time.Now().Add(3 * phaseGrace)) // a failure shows as an error on the write
	status, body, err := c.do(renderGet("/v1/clusters"), nil)
	if err != nil {
		return partition{}, fmt.Errorf("GET /v1/clusters: %w", err)
	}
	if status != 200 {
		return partition{}, fmt.Errorf("GET /v1/clusters: status %d", status)
	}
	return tr.checkPartition(body)
}
