package disk

// The spill file is written behind and read in runs: a spill appends its
// record to the tail at the offset it will take in the file, the tail is
// written whole once it holds a batch, a record is served from wherever
// it is, and a batch that fails to write stays in memory until the next
// one writes it.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"entityid/internal/store"
)

func openTier(t *testing.T, hotEntries int) *Backend {
	t.Helper()
	be, err := Open(t.TempDir(), store.Caps{HotClusterEntries: hotEntries})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { be.Close() })
	return be
}

func pairRow(i int) []store.Node { return []store.Node{{Src: 0, Idx: i}, {Src: 1, Idx: i}} }

// wantFile is what the spill file must hold once every byte is written:
// the record of each spilled row, at the offset the index gives it, back
// to back from offset 0 to the append offset, with no gap and no overlap.
func wantFile(t *testing.T, c *clusters, rows [][]store.Node) []byte {
	t.Helper()
	type at struct {
		off int64
		ms  []store.Node
	}
	var spilled []at
	for _, ms := range rows {
		if r := c.idx.Get(ms[0]); r != nil && r.off >= 0 {
			spilled = append(spilled, at{r.off, ms})
		}
	}
	slices.SortFunc(spilled, func(a, b at) int { return int(a.off - b.off) })
	var want []byte
	for _, s := range spilled {
		if s.off != int64(len(want)) {
			t.Fatalf("the record of %v is at %d, want %d", s.ms, s.off, len(want))
		}
		want = appendRecord(want, s.ms)
	}
	if int64(len(want)) != c.wsize {
		t.Fatalf("the spilled records hold %d bytes, the append offset is %d", len(want), c.wsize)
	}
	return want
}

func fileBytes(t *testing.T, c *clusters) []byte {
	t.Helper()
	b, err := os.ReadFile(c.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSpillFileIsRecordsInSpillOrder: with room for one row, each
// publication spills the row before it, so spill order is publication
// order. The tail stays under a batch between publications, and each
// time it is written the file is byte for byte the records spilled so
// far, in that order.
// TestDirHoldsTheSpillFileAlone: the tier caches cluster records and
// nothing else, so its directory holds the one spill file after Open and
// after a run of publications that spills past the budget and writes a
// batch.
func TestDirHoldsTheSpillFileAlone(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tier")
	be, err := Open(dir, store.Caps{HotClusterEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	holds := func(when string) {
		t.Helper()
		es, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range es {
			names = append(names, e.Name())
		}
		if !slices.Equal(names, []string{"clusters.spill"}) {
			t.Fatalf("%s the directory holds %v, want the spill file alone", when, names)
		}
	}
	holds("after Open")
	c := &be.c
	for i := 0; c.fsize == 0 && i < 1<<16; i++ {
		c.Publish(pairRow(i))
	}
	if c.fsize == 0 {
		t.Fatalf("no batch written after %d spills", c.spills.Load())
	}
	holds("after spilling")
}

func TestSpillFileIsRecordsInSpillOrder(t *testing.T) {
	c := &openTier(t, 2).c
	var rows [][]store.Node
	var prev int64 = -1
	for writes := 0; writes < 3; {
		rows = append(rows, pairRow(len(rows)))
		c.Publish(rows[len(rows)-1])
		if len(c.tail) >= batchBytes {
			t.Fatalf("row %d: the tail holds %d bytes, a batch is %d", len(rows)-1, len(c.tail), batchBytes)
		}
		if len(rows) > 1 {
			r := c.idx.Get(rows[len(rows)-2][0])
			if r.off <= prev {
				t.Fatalf("row %d spilled at %d, after a row at %d", len(rows)-2, r.off, prev)
			}
			prev = r.off
		}
		if len(c.tail) > 0 {
			continue
		}
		writes++
		if c.fsize != c.wsize {
			t.Fatalf("the tail is empty but %d of %d bytes are written", c.fsize, c.wsize)
		}
		if got, want := fileBytes(t, c), wantFile(t, c, rows); !bytes.Equal(got, want) {
			t.Fatalf("after write %d the file holds %d bytes, not the %d bytes of the spilled records", writes, len(got), len(want))
		}
	}
}

// TestFailedBatchWriteLosesNothing: with the spill file's handle closed
// every batch write fails. Each failure is counted, the tail keeps every
// record, and every read path serves every row from it. With a handle
// again, the next batch writes the whole tail where its records belong.
func TestFailedBatchWriteLosesNothing(t *testing.T) {
	c := &openTier(t, 2).c
	path := c.f.Name()
	if err := c.f.Close(); err != nil {
		t.Fatal(err)
	}
	errs := mSpillErrors.Value()
	var rows [][]store.Node
	for c.wsize < 2*batchBytes+batchBytes/2 {
		rows = append(rows, pairRow(len(rows)))
		c.Publish(rows[len(rows)-1])
	}
	// One attempt when the tail held a batch, one when it held two.
	if got := mSpillErrors.Value() - errs; got != 2 {
		t.Fatalf("%d failed writes counted, want 2", got)
	}
	if c.fsize != 0 || int64(len(c.tail)) != c.wsize {
		t.Fatalf("%d bytes counted as written, %d of %d in the tail", c.fsize, len(c.tail), c.wsize)
	}
	for i, ms := range rows {
		if got, err := c.Peek(ms[1]); err != nil || !reflect.DeepEqual(got, ms) {
			t.Fatalf("Peek of row %d = %v, %v", i, got, err)
		}
	}
	if got, err := c.Partition(); err != nil || !reflect.DeepEqual(got, rows) {
		t.Fatalf("Partition = %d rows, %v; want %d", len(got), err, len(rows))
	}
	for i, ms := range rows {
		if got, err := c.Read(ms[1]); err != nil || !reflect.DeepEqual(got, ms) {
			t.Fatalf("Read of row %d = %v, %v", i, got, err)
		}
		if got, err := c.Members(ms[0]); err != nil || !reflect.DeepEqual(got, ms) {
			t.Fatalf("Members of row %d = %v, %v", i, got, err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.f = f
	c.mu.Unlock()
	for c.fsize == 0 {
		rows = append(rows, pairRow(len(rows)))
		c.Publish(rows[len(rows)-1])
	}
	if got := mSpillErrors.Value() - errs; got != 2 {
		t.Fatalf("%d failed writes counted after the handle came back, want 2", got)
	}
	if got, want := fileBytes(t, c), wantFile(t, c, rows); c.fsize != c.wsize || !bytes.Equal(got, want) {
		t.Fatalf("the file holds %d bytes (%d counted), not the %d bytes of the spilled records", len(got), c.fsize, len(want))
	}
}

// TestPartitionReadsInRuns: Partition's cold records span several
// batches of the file and the tail. Superseded rows leave a stretch of
// dead bytes wider than a run's gap, resident rows leave narrow ones
// inside a run, and the file is longer than one run; every record comes
// back, in node order, each counted as one page-in.
func TestPartitionReadsInRuns(t *testing.T) {
	c := &openTier(t, 2).c
	var rows [][]store.Node
	for c.wsize < 3*runBytes/2 {
		rows = append(rows, pairRow(len(rows)))
		c.Publish(rows[len(rows)-1])
	}
	for i := len(rows) / 4; i < len(rows)/4+runGap; i++ {
		rows[i] = append(slices.Clone(rows[i]), store.Node{Src: 2, Idx: i})
		c.Publish(rows[i])
	}
	for i := len(rows) / 2; i < len(rows)/2+5; i++ {
		if _, err := c.Read(rows[i][0]); err != nil {
			t.Fatal(err)
		}
	}
	if c.fsize <= runBytes || len(c.tail) == 0 {
		t.Fatalf("%d bytes in the file and %d in the tail: want more than a run and some", c.fsize, len(c.tail))
	}
	before := c.Stats()
	if got, err := c.Partition(); err != nil || !reflect.DeepEqual(got, rows) {
		t.Fatalf("Partition = %d rows, %v; want %d", len(got), err, len(rows))
	}
	if after := c.Stats(); after.PageIns-before.PageIns != int64(before.ColdRecords) || after.ColdRecords != before.ColdRecords {
		t.Fatalf("Partition paged in %d records of %d cold, and left %d cold", after.PageIns-before.PageIns, before.ColdRecords, after.ColdRecords)
	}
}
