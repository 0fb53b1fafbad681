// Package disk is the tiered storage backend: cold cluster records
// spill to one append-only file of CRC-checked binary records and page
// back in on demand, keeping resident memory bounded by the configured
// hot-tier budget. Its pair store writes tables to CRC-framed section
// files (the WAL frame format), but the hub keeps every pair's matching
// table resident and never saves one (store's package comment).
//
// The spill tier is a CACHE, not a durability layer. Durability stays
// with the WAL and snapshots; Open wipes any leftover spill files from
// a previous process, because recovery rebuilds every record it needs
// by replay. That makes crash-consistency trivial — there is no spill
// state to fsck, and the record format carries no version — and means
// spill writes never fsync.
//
// A spilled cluster record is
//
//	crc32c (4 bytes, little-endian, over the rest) | uvarint count | (uvarint src, uvarint idx)…
//
// and the one decoder every read path shares (decodeRecord) checks the
// way back: the CRC, that every varint is minimal and fits an int, the
// count against the index's, and that nothing trails the last member; a
// failed check is an error naming the record's offset, never a member
// set, and changes no tier state.
//
// The file is written behind and read in runs. A spill appends its
// record to a pending tail at the offset it will occupy in the file, and
// the tail goes out in one WriteAt once it holds batchBytes, so a run of
// evictions — a recovery's fold publishing every component in canonical
// order, a stream's commits — costs a few sequential writes, not one a
// record. A record still in the tail is served from memory, and that
// read counts as a page-in as a file read does. Partition sorts its cold
// records by offset and reads each run of nearby ones with one ReadAt
// (readRuns). Where a record lies and which bytes it holds do not depend
// on when the tail is written.
//
// The index is the resident store's: a store.Index, one record-pointer
// slot per tuple position. An index entry (rec) always knows its
// record's first member, size and spill address; only the member set
// comes and goes with the tier. Partition walks the index in node order
// and takes each record at its first member, which is the snapshot's
// canonical order with nothing to sort.
//
// Tier discipline for cluster records — who promotes, who does not:
//
//   - Point reads (Read) page a cold record in, install it hot, and
//     evict the least-recently-used records back down to budget.
//     Evicting a record whose body is already on disk is free (the
//     record stays addressable); only never-spilled records pay an
//     append to the tail.
//
//   - The enumeration's reads move nothing. Glance answers from the
//     index (has a record, its first member, the set if resident);
//     Peek serves a cold body through the tier — decoded and handed to
//     the caller, not installed, nothing evicted, LRU order untouched —
//     so a scan leaves the hot set the point reads built as it found
//     it. Partition (the snapshot cut's scan) reads through likewise.
//
//   - Writer-side lookups (Members) page in WITHOUT evicting: the
//     commit path must never lose a record between its uniqueness
//     check and its merge publication. Publish rebalances at the end
//     of the commit instead.
//
//   - If a batch write fails, the tail stays in memory and goes out
//     again with the next batch: every record stays readable, the
//     memory it holds grows past the batch until a write succeeds, and
//     Publish therefore never fails.
//
// Returned member slices are immutable and remain valid after the
// record is evicted or superseded — eviction drops the store's
// reference, not the caller's.
//
// Concurrency: one mutex serialises the tier's state — the index, the
// LRU list, the tail and the append offset. Everything that mutates it
// does its I/O under it: Read and Members must install what they load,
// and at 0.2 page-ins per point read a re-validation protocol would not
// pay.
// Peek, which mutates nothing, copies the record's address (offset,
// length, member count) under the mutex — and, for a record still in the
// tail, its bytes — and preads and decodes after releasing it, so
// scanners and point readers do not queue behind each other's system
// calls. That is safe because a record in the file is immutable — the
// file is append-only, written once per record at an offset no other
// record shares, and never rewritten or truncated while open (a batch
// written again after a failure writes the same bytes at the same
// offsets) — and the record's identity was fixed at the lookup, the same
// linearisation point Read has: a Publish that supersedes it in between
// leaves the old bytes where they were. The always-hot mem backend reads
// the same index with no lock at all; here what a read finds in an entry
// — resident set, LRU position, spill address — only the mutex keeps
// consistent.
package disk

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"entityid/internal/match"
	"entityid/internal/obs"
	"entityid/internal/store"
	"entityid/internal/wal"
)

var (
	mTierReads = obs.Default.CounterVec("store_tier_reads_total",
		"Cluster-record reads by serving tier (disk backend)", "tier")
	tierHot  = mTierReads.With("hot")
	tierCold = mTierReads.With("cold")

	mSpills = obs.Default.CounterVec("store_tier_spills_total",
		"Bodies written to the spill tier", "kind")
	spillCluster = mSpills.With("cluster")
	spillPair    = mSpills.With("pair")

	mPageIns = obs.Default.CounterVec("store_tier_pageins_total",
		"Bodies read back from the spill tier", "kind")
	pageInCluster = mPageIns.With("cluster")
	pageInPair    = mPageIns.With("pair")

	mPageInSeconds = obs.Default.LatencyHistogramVec("store_tier_pagein_seconds",
		"Spill-tier page-in latency", "kind")
	pageInClusterSec = mPageInSeconds.With("cluster")
	pageInPairSec    = mPageInSeconds.With("pair")

	mSpillErrors = obs.Default.Counter("store_tier_spill_errors_total",
		"Failed spill batch writes (the batch stays in memory and is written again with the next)")

	mHotEntries = obs.Default.Gauge("store_hot_cluster_entries",
		"Members across resident cluster records (disk backend; last backend to update wins)")
)

// rec is the index entry for one published cluster. members is nil
// while the body lives only in the spill file; first and size, the
// smallest member and the member count, are always known, so a glance
// and merge accounting never page in.
type rec struct {
	members []store.Node
	first   store.Node
	size    int
	off     int64 // spill record offset; -1 when never spilled
	flen    int   // spill record length
	elem    *elem // LRU position while resident
}

// elem is a node of the intrusive LRU list (front = most recent).
type elem struct {
	r          *rec
	prev, next *elem
}

// lruList is a tiny intrusive doubly-linked list; container/list would
// do, but an intrusive list keeps rec↔element wiring explicit.
type lruList struct {
	front, back *elem
	n           int
}

func (l *lruList) pushFront(r *rec) *elem {
	e := &elem{r: r, next: l.front}
	if l.front != nil {
		l.front.prev = e
	}
	l.front = e
	if l.back == nil {
		l.back = e
	}
	l.n++
	return e
}

func (l *lruList) remove(e *elem) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

func (l *lruList) moveToFront(e *elem) {
	if l.front == e {
		return
	}
	l.remove(e)
	e.next = l.front
	if l.front != nil {
		l.front.prev = e
	}
	l.front = e
	if l.back == nil {
		l.back = e
	}
	l.n++
}

// clusters is the tiered cluster-record store.
type clusters struct {
	//entitylint:lock rank=100
	mu         sync.Mutex
	idx        store.Index[rec]
	lru        lruList
	hotEntries int
	cold       int
	budget     int // HotClusterEntries; 0 = unbounded

	f     *os.File // append-only spill file; records are immutable once written
	fsize int64    // bytes written to f: a record at a lower offset is in the file
	wsize int64    // logical end of f, the tail included (append offset)
	tail  []byte   // the records at fsize..wsize, not yet written
	due   int      // tail length at which it is next written
	buf   []byte   // run scratch for page-ins under mu

	merged  atomic.Int64
	hits    atomic.Int64
	misses  atomic.Int64
	spills  atomic.Int64
	pageIns atomic.Int64
}

func (c *clusters) Read(n store.Node) ([]store.Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.idx.Get(n)
	if r == nil {
		return nil, nil
	}
	if r.members != nil {
		c.hits.Add(1)
		tierHot.Inc()
		c.lru.moveToFront(r.elem)
		return r.members, nil
	}
	c.misses.Add(1)
	tierCold.Inc()
	ms, err := c.load(r)
	if err != nil {
		return nil, err
	}
	c.install(r, ms)
	c.evict()
	return ms, nil
}

func (c *clusters) Glance(n store.Node) (store.Node, []store.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.idx.Get(n)
	if r == nil {
		return store.Node{}, nil, false
	}
	return r.first, r.members, true
}

// peekBufs are Peek's record buffers: it reads outside the mutex, so it
// cannot share c.buf.
var peekBufs = sync.Pool{New: func() any { return new([]byte) }}

func (c *clusters) Peek(n store.Node) ([]store.Node, error) {
	c.mu.Lock()
	r := c.idx.Get(n)
	if r == nil {
		c.mu.Unlock()
		return nil, nil
	}
	if ms := r.members; ms != nil {
		c.mu.Unlock()
		c.hits.Add(1)
		tierHot.Inc()
		return ms, nil
	}
	// The record is fixed here; its bytes cannot change (package comment).
	off, flen, size := r.off, r.flen, r.size
	buf := peekBufs.Get().(*[]byte)
	defer peekBufs.Put(buf)
	inTail := off >= c.fsize
	if inTail {
		// The tail is written and reused under the mutex: copy the bytes.
		*buf = append((*buf)[:0], c.tailBytes(off, flen)...)
	}
	c.mu.Unlock()
	c.misses.Add(1)
	tierCold.Inc()
	if inTail {
		return c.pagedIn(time.Now(), off, *buf, size)
	}
	return c.readRecord(buf, off, flen, size)
}

func (c *clusters) Members(n store.Node) ([]store.Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.idx.Get(n)
	if r == nil {
		return []store.Node{n}, nil
	}
	if r.members != nil {
		c.lru.moveToFront(r.elem)
		return r.members, nil
	}
	c.misses.Add(1)
	tierCold.Inc()
	ms, err := c.load(r)
	if err != nil {
		return nil, err
	}
	// No evict here: everything the commit path pages in stays
	// resident until Publish rebalances (see package comment).
	c.install(r, ms)
	return ms, nil
}

func (c *clusters) Has(n store.Node) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx.Get(n) != nil
}

func (c *clusters) Publish(members []store.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := 0
	for _, m := range members {
		// The new set is a superset of every record it supersedes, so each
		// of them is met once at its first member, and every index slot
		// pointing at it is overwritten below.
		if r := c.idx.Get(m); r != nil && r.first == m {
			prev += r.size - 1
			if r.members != nil {
				c.lru.remove(r.elem)
				r.elem = nil
				r.members = nil
				c.hotEntries -= r.size
			} else {
				c.cold--
			}
		}
	}
	nr := &rec{members: members, first: members[0], size: len(members), off: -1}
	nr.elem = c.lru.pushFront(nr)
	c.hotEntries += nr.size
	for i := len(members) - 1; i >= 0; i-- {
		c.idx.Set(members[i], nr)
	}
	c.merged.Add(int64(len(members) - 1 - prev))
	c.evict()
	mHotEntries.Set(int64(c.hotEntries))
}

func (c *clusters) Merged() int64 { return c.merged.Load() }

// Partition reads every record — paging cold bodies without installing
// them, so a snapshot scan does not thrash the hot tier. The index walks
// in node order and each record is taken at its first member: once, in
// order of first member. The cold ones are then read in offset order,
// in runs (readRuns).
func (c *clusters) Partition() ([][]store.Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := slices.Grow([][]store.Node(nil), c.lru.n+c.cold) // nil for an empty tier
	cold := slices.Grow([]coldRec(nil), c.cold)
	for n, r := range c.idx.All {
		if r.first != n {
			continue
		}
		if r.members == nil {
			cold = append(cold, coldRec{at: len(out), r: r})
		}
		out = append(out, r.members)
	}
	if err := c.readRuns(cold, out); err != nil {
		return nil, err
	}
	return out, nil
}

// coldRec is a cold record Partition reads, and its place in the output.
type coldRec struct {
	at int
	r  *rec
}

// readRuns pages in every record of cold to out[at], in offset order: a
// record still in the tail from memory, and each run of records in the
// file whose gaps are at most runGap bytes, up to runBytes, with one
// ReadAt. Each record is decoded and counted as its own page-in, timed
// as its decode plus an even share of its run's read; a read that comes
// back short fails at the first record it did not cover. Caller holds
// c.mu.
func (c *clusters) readRuns(cold []coldRec, out [][]store.Node) error {
	slices.SortFunc(cold, func(a, b coldRec) int { return cmp.Compare(a.r.off, b.r.off) })
	for len(cold) > 0 {
		start := time.Now()
		lo := cold[0].r.off
		if lo >= c.fsize {
			for _, cr := range cold {
				ms, err := c.pagedIn(time.Now(), cr.r.off, c.tailBytes(cr.r.off, cr.r.flen), cr.r.size)
				if err != nil {
					return err
				}
				out[cr.at] = ms
			}
			return nil
		}
		hi, k := lo+int64(cold[0].r.flen), 1
		for ; k < len(cold); k++ {
			r := cold[k].r
			end := r.off + int64(r.flen)
			if r.off >= c.fsize || r.off-hi > runGap || end-lo > runBytes {
				break
			}
			hi = max(hi, end)
		}
		if int64(cap(c.buf)) < hi-lo {
			c.buf = make([]byte, hi-lo)
		}
		b := c.buf[:hi-lo]
		n, rerr := c.f.ReadAt(b, lo)
		share := time.Since(start) / time.Duration(k)
		for _, cr := range cold[:k] {
			r := cr.r
			at := int(r.off - lo)
			if at+r.flen > n {
				return fmt.Errorf("disk: cluster record at %d: %w", r.off, rerr)
			}
			ms, err := c.pagedIn(time.Now().Add(-share), r.off, b[at:at+r.flen], r.size)
			if err != nil {
				return err
			}
			out[cr.at] = ms
		}
		cold = cold[k:]
	}
	return nil
}

func (c *clusters) Stats() store.ClusterStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return store.ClusterStats{
		HotRecords:  c.lru.n,
		HotEntries:  c.hotEntries,
		ColdRecords: c.cold,
		Budget:      c.budget,
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Spills:      c.spills.Load(),
		PageIns:     c.pageIns.Load(),
	}
}

// install makes a paged-in body resident. Caller holds c.mu.
func (c *clusters) install(r *rec, ms []store.Node) {
	r.members = ms
	r.elem = c.lru.pushFront(r)
	c.hotEntries += r.size
	c.cold--
	mHotEntries.Set(int64(c.hotEntries))
}

// evict spills least-recently-used records until the hot tier fits its
// budget. A record already spilled evicts for free. Caller holds c.mu.
func (c *clusters) evict() {
	if c.budget <= 0 {
		return
	}
	for c.hotEntries > c.budget && c.lru.back != nil {
		e := c.lru.back
		r := e.r
		if r.off < 0 {
			c.spill(r)
		}
		c.lru.remove(e)
		r.elem = nil
		r.members = nil
		c.hotEntries -= r.size
		c.cold++
	}
	mHotEntries.Set(int64(c.hotEntries))
}

// The spill file's batch and run sizes (package comment): the tail is
// written once it holds batchBytes, and Partition reads records whose
// gap is at most runGap bytes with one ReadAt of at most runBytes.
const (
	batchBytes = 64 << 10
	runGap     = 4 << 10
	runBytes   = 256 << 10
)

// spill appends r's body to the tail at the offset it will occupy in
// the file, records that address, and writes the tail once it is due.
// Caller holds c.mu.
func (c *clusters) spill(r *rec) {
	if c.tail == nil {
		c.tail = make([]byte, 0, batchBytes+batchBytes/16) // a batch and the record that fills it
	}
	at := len(c.tail)
	c.tail = appendRecord(c.tail, r.members)
	r.off = c.wsize
	r.flen = len(c.tail) - at
	c.wsize += int64(r.flen)
	c.spills.Add(1)
	spillCluster.Inc()
	if len(c.tail) >= c.due {
		c.writeTail()
	}
}

// writeTail writes the tail at its offset with one WriteAt. On failure
// the tail stays, and is written again, whole, once it has grown by
// another batch; the bytes at each offset are the same either time.
// Caller holds c.mu.
func (c *clusters) writeTail() {
	if _, err := c.f.WriteAt(c.tail, c.fsize); err != nil {
		mSpillErrors.Inc()
		c.due = len(c.tail) + batchBytes
		return
	}
	c.fsize, c.tail, c.due = c.wsize, c.tail[:0], batchBytes
}

// tailBytes is the record of flen bytes at off, which is in the tail.
// Caller holds c.mu; the slice is valid until it is released.
func (c *clusters) tailBytes(off int64, flen int) []byte {
	at := int(off - c.fsize)
	return c.tail[at : at+flen]
}

// load reads r's body back, from the tail or the file, without changing
// tier state. Caller holds c.mu.
func (c *clusters) load(r *rec) ([]store.Node, error) {
	if r.off >= c.fsize {
		return c.pagedIn(time.Now(), r.off, c.tailBytes(r.off, r.flen), r.size)
	}
	return c.readRecord(&c.buf, r.off, r.flen, r.size)
}

// readRecord pages in one record from the file: a single pread of the
// flen bytes at off into *buf (grown when short) and the decode, against
// the size members the index expects. It touches no tier state, so it
// runs with or without c.mu held; *buf is the caller's alone meanwhile.
func (c *clusters) readRecord(buf *[]byte, off int64, flen, size int) ([]store.Node, error) {
	start := time.Now()
	if cap(*buf) < flen {
		*buf = make([]byte, flen)
	}
	b := (*buf)[:flen]
	if _, err := c.f.ReadAt(b, off); err != nil {
		return nil, fmt.Errorf("disk: cluster record at %d: %w", off, err)
	}
	return c.pagedIn(start, off, b, size)
}

// pagedIn decodes the record at off from its bytes b and counts the
// page-in, timed from start.
func (c *clusters) pagedIn(start time.Time, off int64, b []byte, size int) ([]store.Node, error) {
	ms, err := decodeRecord(b, size)
	if err != nil {
		return nil, fmt.Errorf("disk: cluster record at %d: %w", off, err)
	}
	c.pageIns.Add(1)
	pageInCluster.Inc()
	pageInClusterSec.Since(start)
	return ms, nil
}

func pairOf(pr [2]int) match.Pair {
	return match.Pair{RIndex: pr[0], SIndex: pr[1]}
}

// pairHdr is the first chunk of a spilled pair table.
type pairHdr struct {
	RLen  int `json:"rlen"`
	SLen  int `json:"slen"`
	Pairs int `json:"pairs"`
}

// pairChunk is the pair count per continuation chunk: small enough to
// stay far under the frame cap even when tests lower it is not a goal
// (spill failures are tolerated); large enough to amortise framing.
const pairChunk = 1 << 16

// pairs spills pair tables to content-addressed section files, one per
// link ordinal, replaced atomically on each save.
type pairs struct {
	//entitylint:lock rank=110
	mu    sync.Mutex
	dir   string
	files map[int]string

	spills  atomic.Int64
	pageIns atomic.Int64
}

func (p *pairs) Save(id int, tab store.PairTab) error {
	var buf fileBuf
	sw := wal.NewSectionWriter(&buf, 1)
	hdr, err := json.Marshal(pairHdr{RLen: tab.RLen, SLen: tab.SLen, Pairs: len(tab.Pairs)})
	if err != nil {
		return err
	}
	if err := sw.WriteChunk(hdr); err != nil {
		return err
	}
	for lo := 0; lo < len(tab.Pairs); lo += pairChunk {
		hi := min(lo+pairChunk, len(tab.Pairs))
		ps := make([][2]int, hi-lo)
		for i, pr := range tab.Pairs[lo:hi] {
			ps[i] = [2]int{pr.RIndex, pr.SIndex}
		}
		payload, err := json.Marshal(ps)
		if err != nil {
			return err
		}
		if err := sw.WriteChunk(payload); err != nil {
			return err
		}
	}
	name := fmt.Sprintf("p%d-%s.sec", id, sw.Sum()[:16])
	path := filepath.Join(p.dir, name)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	p.mu.Lock()
	old, had := p.files[id]
	p.files[id] = path
	p.mu.Unlock()
	if had && old != path {
		os.Remove(old)
	}
	p.spills.Add(1)
	spillPair.Inc()
	return nil
}

func (p *pairs) Load(id int) (store.PairTab, error) {
	start := time.Now()
	p.mu.Lock()
	path, ok := p.files[id]
	p.mu.Unlock()
	if !ok {
		return store.PairTab{}, fmt.Errorf("disk: pair %d not spilled", id)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return store.PairTab{}, fmt.Errorf("disk: pair %d page-in: %w", id, err)
	}
	sc := wal.NewFrameCutter(data)
	first, _, err := sc.Next()
	if err != nil {
		return store.PairTab{}, fmt.Errorf("disk: pair %d page-in: %w", id, err)
	}
	var hdr pairHdr
	if err := json.Unmarshal(first.Payload, &hdr); err != nil {
		return store.PairTab{}, fmt.Errorf("disk: pair %d page-in: %w", id, err)
	}
	tab := store.PairTab{RLen: hdr.RLen, SLen: hdr.SLen}
	for len(tab.Pairs) < hdr.Pairs {
		rec, _, err := sc.Next()
		if err != nil {
			return store.PairTab{}, fmt.Errorf("disk: pair %d page-in: truncated table: %w", id, err)
		}
		var ps [][2]int
		if err := json.Unmarshal(rec.Payload, &ps); err != nil {
			return store.PairTab{}, fmt.Errorf("disk: pair %d page-in: %w", id, err)
		}
		for _, pr := range ps {
			tab.Pairs = append(tab.Pairs, pairOf(pr))
		}
	}
	if len(tab.Pairs) != hdr.Pairs {
		return store.PairTab{}, fmt.Errorf("disk: pair %d page-in: %d pairs on disk, header says %d", id, len(tab.Pairs), hdr.Pairs)
	}
	p.pageIns.Add(1)
	pageInPair.Inc()
	pageInPairSec.Since(start)
	return tab, nil
}

func (p *pairs) Stats() store.PairStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return store.PairStats{
		Spilled: len(p.files),
		Spills:  p.spills.Load(),
		PageIns: p.pageIns.Load(),
	}
}

// fileBuf is a minimal append-only byte buffer implementing io.Writer.
type fileBuf struct{ b []byte }

func (f *fileBuf) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

// Backend is the disk-tiered storage backend.
type Backend struct {
	dir       string
	c         clusters
	p         pairs
	closeOnce sync.Once
	closeErr  error
}

// Open prepares the spill tier under dir. Any leftover spill state
// from a previous process is discarded: the tier only caches records
// the hub republishes during recovery, so stale files are garbage, and
// wiping them is what makes crash recovery correct by construction.
func Open(dir string, caps store.Caps) (*Backend, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("disk: reset spill tier: %w", err)
	}
	pairDir := filepath.Join(dir, "pairs")
	if err := os.MkdirAll(pairDir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "clusters.spill"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	b := &Backend{dir: dir}
	b.c = clusters{budget: caps.HotClusterEntries, f: f, due: batchBytes}
	b.p = pairs{dir: pairDir, files: map[int]string{}}
	return b, nil
}

func (b *Backend) Name() string             { return "disk" }
func (b *Backend) Clusters() store.Clusters { return &b.c }
func (b *Backend) Pairs() store.Pairs       { return &b.p }

func (b *Backend) Close() error {
	b.closeOnce.Do(func() {
		b.closeErr = b.c.f.Close()
	})
	return b.closeErr
}
