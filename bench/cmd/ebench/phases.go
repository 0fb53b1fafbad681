package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"entityid/bench/plan"
)

// tally counts operations in the contract's form. A non-2xx status, an
// {"ok":false} ack, a missing ack and a timeout all count as failed.
type tally struct{ attempted, failed int64 }

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

var ackOKSuffix = []byte(`"ok":true}`)

// ackOK reports whether one /v1/insert result line acknowledges a
// committed tuple. The daemon renders its acks with sorted keys, so
// "ok" comes last and a suffix test settles nearly every line; any
// other rendering falls back to decoding.
func ackOK(line []byte) bool {
	line = bytes.TrimRight(line, "\r\n")
	if bytes.HasSuffix(line, ackOKSuffix) {
		return true
	}
	var a struct {
		OK bool `json:"ok"`
	}
	return json.Unmarshal(line, &a) == nil && a.OK
}

// ingestResult is the outcome of one ingest phase.
type ingestResult struct {
	tally
	wall     time.Duration // first request byte to last ack
	acked    int           // tuples acknowledged ok
	ackBytes int64
	lat      samples // per-request round trips (single-line POSTs only)
}

const streamChunk = 16 << 10 // request chunk payload; several hundred lines

// streamIngest sends lines as one full-duplex /v1/insert NDJSON stream
// and reads the acks while it sends, as a bulk publisher would.
func streamIngest(addr string, lines [][]byte, timeout time.Duration) (ingestResult, error) {
	res := ingestResult{tally: tally{attempted: int64(len(lines))}}
	c, err := dial(addr, timeout)
	if err != nil {
		return res, err
	}
	defer c.close()
	_ = c.c.SetDeadline(time.Now().Add(timeout)) // a failure shows as an error on the first write
	start := time.Now()
	werr := make(chan error, 1)
	go func() { werr <- writeChunked(c, lines) }()

	status, chunked, length, err := c.readHead()
	if err != nil {
		return res, fmt.Errorf("insert stream: %w", err)
	}
	if status != 200 {
		res.failed = res.attempted
		return res, fmt.Errorf("insert stream: status %d", status)
	}
	split := lineSplitter{line: func(l []byte) {
		res.ackBytes += int64(len(l)) + 1
		if ackOK(l) {
			res.acked++
		}
	}}
	if err := c.readBody(chunked, length, split.write); err != nil {
		return res, fmt.Errorf("insert stream: reading acks: %w", err)
	}
	res.wall = time.Since(start)
	if err := <-werr; err != nil {
		return res, fmt.Errorf("insert stream: sending: %w", err)
	}
	res.failed = res.attempted - int64(res.acked)
	return res, nil
}

func writeChunked(c *conn, lines [][]byte) error {
	head := []byte("POST /v1/insert HTTP/1.1\r\nHost: bench\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n")
	if _, err := c.c.Write(head); err != nil {
		return err
	}
	var payload, frame []byte
	flush := func() error {
		frame = strconv.AppendInt(frame[:0], int64(len(payload)), 16)
		frame = append(frame, "\r\n"...)
		frame = append(frame, payload...)
		frame = append(frame, "\r\n"...)
		payload = payload[:0]
		_, err := c.c.Write(frame)
		return err
	}
	for _, l := range lines {
		payload = append(payload, l...)
		if len(payload) >= streamChunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(payload) > 0 {
		if err := flush(); err != nil {
			return err
		}
	}
	_, err := c.c.Write([]byte("0\r\n\r\n"))
	return err
}

// liveInserts sends each line as its own POST on one connection and
// waits for its ack before the next: a live publisher.
func liveInserts(addr string, lines [][]byte, timeout time.Duration) (ingestResult, error) {
	res := ingestResult{}
	reqs := make([][]byte, len(lines))
	for i, l := range lines {
		reqs[i] = renderPost("/v1/insert", "application/x-ndjson", l)
	}
	c, err := dial(addr, timeout)
	if err != nil {
		return res, err
	}
	defer c.close()
	_ = c.c.SetDeadline(time.Now().Add(timeout)) // a failure shows as an error on the first write
	res.lat = make(samples, 0, len(reqs))
	var body []byte
	start := time.Now()
	for _, req := range reqs {
		t0 := time.Now()
		status, b, err := c.do(req, body)
		t1 := time.Now()
		res.attempted++
		if err != nil {
			res.failed++
			return res, fmt.Errorf("insert: %w", err)
		}
		body = b
		res.ackBytes += int64(len(b))
		if status == 200 && ackOK(b) {
			res.acked++
		} else {
			res.failed++
		}
		res.lat = append(res.lat, sample{end: t1.Sub(start), lat: t1.Sub(t0)})
	}
	res.wall = time.Since(start)
	return res, nil
}

// sampledReply is a point-read reply kept for checking after the phase.
type sampledReply struct {
	tuple int
	body  []byte
}

// readResult is the outcome of one connection's point reads.
type readResult struct {
	tally
	lat     samples
	replies []sampledReply
}

const verifyEvery = 32 // one point-read reply in this many is decoded and checked

// pointReads issues GET /v1/cluster for picked keys, one at a time,
// until the deadline passes or stop is closed.
func pointReads(addr string, reqs [][]byte, pick plan.KeyPicker, deadline time.Time, stop <-chan struct{}) (readResult, error) {
	var res readResult
	c, err := dial(addr, 5*time.Second)
	if err != nil {
		return res, err
	}
	defer c.close()
	// The phase ends at the deadline; a reply still missing well after
	// it is a hung daemon.
	_ = c.c.SetDeadline(deadline.Add(phaseGrace))
	res.lat = make(samples, 0, 1<<16)
	var body []byte
	start := time.Now()
	for {
		select {
		case <-stop:
			return res, nil
		default:
		}
		t0 := time.Now()
		if !t0.Before(deadline) {
			return res, nil
		}
		k := pick()
		status, b, err := c.do(reqs[k], body)
		t1 := time.Now()
		res.attempted++
		if err != nil {
			res.failed++
			return res, fmt.Errorf("point read: %w", err)
		}
		body = b
		if status != 200 {
			res.failed++
		} else if res.attempted%verifyEvery == 0 {
			res.replies = append(res.replies, sampledReply{k, append([]byte(nil), b...)})
		}
		res.lat = append(res.lat, sample{end: t1.Sub(start), lat: t1.Sub(t0)})
	}
}

// scanResult is the outcome of one connection's full scans.
type scanResult struct {
	tally
	lines    int64         // cluster lines received inside the window
	wall     time.Duration // the window
	complete int           // scans that ran to the end
}

// scans streams GET /v1/clusters again and again until the deadline;
// the scan in progress at the deadline is cut off there and its lines
// so far count. want is the cluster count every complete scan must show.
func scans(addr string, want int, deadline time.Time) (scanResult, error) {
	var res scanResult
	req := renderGet("/v1/clusters")
	start := time.Now()
	for time.Now().Before(deadline) {
		c, err := dial(addr, 5*time.Second)
		if err != nil {
			return res, err
		}
		_ = c.c.SetDeadline(deadline) // expiry is the normal end of the phase
		n, err := scanOnce(c, req, &res.lines)
		c.close()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			break
		}
		res.attempted++
		if err != nil {
			res.failed++
			return res, fmt.Errorf("scan: %w", err)
		}
		res.complete++
		if n != int64(want) {
			res.failed++
			return res, fmt.Errorf("scan: %d clusters streamed, /v1/stats says %d", n, want)
		}
	}
	res.wall = time.Since(start)
	return res, nil
}

func scanOnce(c *conn, req []byte, total *int64) (int64, error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, err
	}
	status, chunked, length, err := c.readHead()
	if err != nil {
		return 0, err
	}
	if status != 200 {
		return 0, fmt.Errorf("status %d", status)
	}
	var n int64
	err = c.readBody(chunked, length, func(p []byte) {
		k := int64(bytes.Count(p, []byte{'\n'}))
		n += k
		*total += k
	})
	return n, err
}

// onConns runs fn on n goroutines, one per connection, and waits.
func onConns[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}
