// POST /v1/insert, the NDJSON ingest path. A line is
// {"source":…,"tuple":[…]}: readEnvelope reads the envelope as
// encoding/json would (envelope.go), and the tuple — a JSON array of
// scalars, the bytes an ack serves back and the log keeps — is read by
// the one tuple codec against the source's schema (decodeLine).
//
// /v1/insert streams both ways: request lines decode as they arrive
// off the wire into a hub ingest stream of the request's own (two
// goroutines over bounded channels — a slow disk or consumer stalls
// that client's upload, never the server's memory or another request),
// and one ack line streams back per input line, in input order, flushed
// per line while the body trickles and every 64 lines during a
// sustained bulk load. Acks are per line: a line that fails tuple
// parsing or hub admission is reported in place ({"ok":false,...})
// without aborting the stream; a malformed-JSON line or a body hitting
// -max-insert-body ends the response with a final
// {"ok":false,...,"terminal":true} line, and lines acked before it
// remain committed (rejecting such bodies whole with 400/413 would
// require buffering the entire body). A client disconnect cancels the
// stream and leaves exactly the acked prefix, plus at most the bounded
// in-flight window, committed — acknowledged lines are never lost,
// unacknowledged tails never half-apply.
//
// A body that is one line — the request declares its Content-Length, it
// fits 4 KiB and holds exactly one non-blank line — is not wrapped in a
// stream: the handler commits it on the request's own goroutine and
// answers with Content-Length in one write. Only the response's framing
// differs (a declared length instead of chunks): status, content type
// and the bytes of the result line are the stream's, and the ack still
// follows the WAL append and the flush epoch (the fsync, under
// -sync-every). Such a body that the client never finishes sending
// commits nothing and gets the terminal line.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"entityid"
	"entityid/internal/relation"
	"entityid/internal/value"
)

// decodeLine parses one trimmed, non-blank body line into a hub insert,
// its tuple cut from blocks the request owns — the hub files a copy of
// it, and blocks are only ever appended to, so reusing them across lines
// and requests overwrites no tuple. A framing error (malformed JSON) is
// terminal — nothing after the line can be trusted, it may be a torn
// tail; a tuple error is the line's own. What only this door does is fold
// a string attribute's "" and "null" into NULL, the way value.Parse folds
// them for every other kind and every CSV field; storage holds those two
// strings as themselves.
func (s *server) decodeLine(line []byte, blocks *relation.TupleBlocks) (ins entityid.HubInsert, terminal bool, err error) {
	il, err := readEnvelope(line)
	if err != nil {
		return ins, true, err
	}
	sch, err := s.hub.SourceSchema(il.Source)
	if err != nil {
		return ins, false, fmt.Errorf("unknown source %q", il.Source)
	}
	if len(il.Tuple) == 0 || string(il.Tuple) == "null" {
		il.Tuple = json.RawMessage("[]") // a missing tuple is an empty one
	}
	t, err := blocks.ParseJSON(sch, il.Tuple)
	if err != nil {
		return ins, false, fmt.Errorf("source %q: %w", il.Source, err)
	}
	for i, v := range t {
		if v.Kind() == value.KindString {
			t[i], _ = value.Parse(v.Str(), value.KindString) // never fails: folds, or keeps the string
		}
	}
	return entityid.HubInsert{Source: il.Source, Tuple: t}, false, nil
}

// soleLine returns the one non-blank line of body, trimmed, and its
// 1-based line number — lines and blanks as the stream decoder's scanner
// sees them. ok is false when body holds no such line, or several.
func soleLine(body []byte) (line []byte, lineNo int, ok bool) {
	for n := 1; len(body) > 0; n++ {
		l := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			l, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if l = bytes.TrimSpace(l); len(l) == 0 {
			continue
		}
		if ok {
			return nil, 0, false
		}
		line, lineNo, ok = l, n, true
	}
	return line, lineNo, ok
}

// insertLineMeta carries one body line's fate from the decoder to the
// writer, in line order: a parse error reported in place, a terminal
// stream failure (malformed framing, body cap), or a line that went to
// the hub — whose outcome is the next result off the ingest stream,
// which preserves order.
type insertLineMeta struct {
	err      error
	terminal bool
	hub      bool
}

// streamReadError rewrites a body read failure for the terminal result
// line, naming the ingest cap when that is what cut the stream off.
func streamReadError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return fmt.Errorf("request body exceeds %d bytes: stream truncated (lines before the cap were processed)", mbe.Limit)
	}
	return err
}

// handleInsert commits an NDJSON ingest body, one ack line per input
// line, always 200 + application/x-ndjson once admitted.
//
// A body is a stream (insertStream) unless the request shows it is not:
// one that declares its length (Content-Length, so not chunked), fits
// directInsertMax and the body cap, and turns out to hold exactly one
// non-blank line is committed right here — decode, Hub.Insert, flush
// epoch, one write carrying Content-Length (insertOne) — with no
// goroutine, channel or ingest stream built around it. The two differ in
// response framing only: status, content type and the bytes of every
// outcome (ack, tuple error, hub rejection, terminal framing error) are
// the stream's. A declared-length body that is short or fails to read
// commits nothing and answers the stream's terminal line.
func (s *server) handleInsert(w http.ResponseWriter, r *http.Request) {
	// Admission first: shed while draining or degraded (503) or when
	// the concurrency gate is full (429) — never queue.
	if !s.admitIngest(w) {
		return
	}
	defer s.gate.Release()
	if s.maxInsertBody > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxInsertBody)
	}
	buf := scratchPool.Get().(*scratch)
	defer scratchPool.Put(buf)
	body := io.Reader(r.Body)
	if n := r.ContentLength; n > 0 && n <= directInsertMax && (s.maxInsertBody <= 0 || n <= s.maxInsertBody) {
		whole := buf.body[:n]
		if _, err := io.ReadFull(r.Body, whole); err != nil {
			writeInsertLine(w, appendErrorLine(buf.out[:0], streamReadError(err), true))
			return
		}
		if line, lineNo, ok := soleLine(whole); ok {
			buf.out = s.insertOne(buf.out[:0], line, lineNo, &buf.blocks)
			writeInsertLine(w, buf.out)
			return
		}
		// Several lines, or none: a stream after all, over a copy of the
		// bytes in hand (its decoder goroutine must not share the pool's).
		body = bytes.NewReader(bytes.Clone(whole))
	}
	s.insertStream(r.Context(), w, body, buf)
}

// insertOne commits the single line of a one-line body on the request's
// goroutine and renders its result line. An ack follows the WAL append
// (Insert) and the flush epoch, as a stream's does.
func (s *server) insertOne(b, line []byte, lineNo int, blocks *relation.TupleBlocks) []byte {
	ins, terminal, err := s.decodeLine(line, blocks)
	if err != nil {
		return appendErrorLine(b, fmt.Errorf("line %d: %w", lineNo, err), terminal)
	}
	rec, err := s.hub.Insert(ins.Source, ins.Tuple)
	if err != nil {
		return appendErrorLine(b, err, false)
	}
	s.hub.FlushEpoch()
	return s.appendAck(b, rec)
}

// writeInsertLine answers a whole /v1/insert response that is one line:
// a declared length, so net/http neither chunks it nor needs a flush —
// header and body leave in one segment.
func writeInsertLine(w http.ResponseWriter, line []byte) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Length", strconv.Itoa(len(line)))
	w.Write(line) // a failed write means the client is gone: nothing to tell it
}

// insertStream streams an NDJSON ingest body through a hub ingest
// stream: lines decode as they arrive off the wire, commit in order
// with bounded in-flight work, and each result line is written — and
// periodically flushed — while later lines are still being read.
// Nothing buffers O(body).
//
// Contract: acks are per line. A line that fails to parse is reported
// in place without aborting the stream; a malformed-JSON line or a body
// over -max-insert-body terminates the stream with a final
// {"ok":false,...,"terminal":true} line — lines already acked by then
// are committed and stay committed. A client disconnect cancels the
// ingest stream mid-flight and leaves exactly the acked prefix — and at
// most a bounded in-flight window past it — committed.
func (s *server) insertStream(ctx context.Context, w http.ResponseWriter, body io.Reader, buf *scratch) {
	in := make(chan entityid.HubInsert)
	metas := make(chan insertLineMeta, insertFlushEvery)
	// Decoder: scan the body incrementally, parse each line, and hand
	// valid tuples to the ingest stream. Every send selects on ctx so a
	// disconnected client never wedges the scan. The meta always
	// precedes its item, so the writer can pair hub results with lines.
	go func() {
		defer close(in)
		defer close(metas)
		sendMeta := func(m insertLineMeta) bool {
			select {
			case metas <- m:
				return true
			case <-ctx.Done():
				return false
			}
		}
		var blocks relation.TupleBlocks
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 0, directInsertMax), 1<<20)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			ins, terminal, err := s.decodeLine(line, &blocks)
			if terminal {
				// If the tear came from a read failure — the body cap
				// truncating mid-line is the common case — report that
				// instead of the confusing partial-JSON error.
				terr := error(fmt.Errorf("line %d: %w", lineNo, err))
				if !sc.Scan() {
					if serr := sc.Err(); serr != nil {
						terr = streamReadError(serr)
					}
				}
				sendMeta(insertLineMeta{err: terr, terminal: true})
				return
			}
			if err != nil {
				// Tuple-level error: reported in place, stream continues.
				if !sendMeta(insertLineMeta{err: fmt.Errorf("line %d: %w", lineNo, err)}) {
					return
				}
				continue
			}
			if !sendMeta(insertLineMeta{hub: true}) {
				return
			}
			select {
			case in <- ins:
			case <-ctx.Done():
				return
			}
		}
		if err := sc.Err(); err != nil {
			sendMeta(insertLineMeta{err: streamReadError(err), terminal: true})
		}
	}()
	results := s.hub.IngestStream(ctx, in, entityid.HubStreamOptions{})

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// Commit the 200 and push headers now: acks stream per line, so a
	// client reading the response before it finishes sending the body
	// (the normal pipelined pattern) must not wait on the first result.
	// Full duplex is required first — without it net/http drains the
	// rest of the request body before the first response write, which
	// deadlocks against a client that reads acks as it sends.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	// dead flags a failed response write (client gone): stop writing but
	// keep draining metas and results so the decoder and the ingest
	// stream wind down through their normal paths.
	dead := false
	emit := func(line []byte) {
		buf.out = line // rendered into buf.out: keep what it grew to
		if dead {
			return
		}
		if _, err := w.Write(line); err != nil {
			dead = true
		}
	}
	pending := 0
	flush := func() {
		if flusher != nil && !dead && pending > 0 {
			flusher.Flush()
		}
		pending = 0
	}
	for {
		var m insertLineMeta
		var ok bool
		select {
		case m, ok = <-metas:
		default:
			// The decoder has no line ready (client is trickling):
			// flush what's written so interactive streams see per-line
			// acks, then wait.
			flush()
			m, ok = <-metas
		}
		if !ok {
			break
		}
		switch {
		case m.err != nil:
			emit(appendErrorLine(buf.out[:0], m.err, m.terminal))
		default:
			res, rok := <-results
			if !rok {
				// The stream closed early (canceled): nothing more to ack.
				dead = true
				continue
			}
			if res.Err != nil {
				emit(appendErrorLine(buf.out[:0], res.Err, false))
			} else {
				emit(s.appendAck(buf.out[:0], res.Receipt))
			}
		}
		pending++
		if pending >= insertFlushEvery {
			flush()
		}
	}
	// Drain any residual results (cancellation races) so the stream's
	// commit goroutine is never left blocked on an unread channel.
	for range results {
	}
}
