// Section/continuation framing: the primitives behind jumbo logical
// records that do not fit one CRC frame. A *section* is an ordered run
// of frames numbered consecutively from a first sequence number of its
// own — the hub's chunked snapshot stores one section per run of a
// source's tuples, each in its own file, numbered from where the run
// starts, and reads them back independently and in parallel.
//
// SectionWriter frames chunk payloads with section-local sequence
// numbers and maintains a running SHA-256 over the emitted frame bytes,
// so a manifest can carry a content address per section: equal content
// hashes to equal bytes (the frame encoding is canonical), which is
// what lets an incremental snapshot carry unchanged sections forward by
// reference instead of rewriting them.
//
// FrameCutter is the matching reader, of a buffer holding the frames
// whole — a run file read in one call — or of a stream read a window at a
// time, as the log's recovery reads a segment. It decodes consecutive
// frames by the one frame grammar (parseFrame) without enforcing
// cross-frame sequence contiguity (each section numbers its own; the
// caller checks them against where its section starts) and hands back the raw frame bytes so the caller can
// re-hash exactly what is on disk.
package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
)

// truncatedFrame is the corruption reason of bytes that end before a
// frame's newline.
const truncatedFrame = "truncated frame (no trailing newline)"

// FrameCutter cuts consecutive CRC frames in place: each record's
// payload and each raw frame aliases the bytes read, nothing is copied.
// Over a stream (NewFrameReader) it reads a window at a time into a fresh
// buffer, so a frame it handed back stays valid while later windows are
// read; a frame that straddles two windows is carried into the next, and
// one longer than the window grows that window to hold it.
type FrameCutter struct {
	r      io.Reader // nil once every byte is in buf
	window int
	buf    []byte
	off    int   // bytes of buf cut
	seen   int   // bytes past off known to hold no newline
	base   int64 // stream offset of buf[0]
	reads  int   // windows read
}

// NewFrameCutter cuts the frames of b.
func NewFrameCutter(b []byte) *FrameCutter { return &FrameCutter{buf: b} }

// NewFrameReader cuts the frames of r, reading window bytes at a time.
func NewFrameReader(r io.Reader, window int) *FrameCutter {
	return &FrameCutter{r: r, window: max(window, 1)}
}

// Offset returns the byte offset just past the last good frame.
func (c *FrameCutter) Offset() int64 { return c.base + int64(c.off) }

// Next cuts the next frame, returning the decoded record plus the raw
// frame bytes (including the trailing newline). It returns io.EOF at a
// clean end, a *CorruptError when the remaining bytes are not a valid
// frame, and a stream's read error as it is.
func (c *FrameCutter) Next() (Record, []byte, error) {
	for {
		rest := c.buf[c.off:]
		if i := bytes.IndexByte(rest[c.seen:], '\n'); i >= 0 {
			n := c.seen + i + 1
			line := rest[:n:n]
			rec, reason := parseFrame(line[:n-1])
			if reason != "" {
				return Record{}, nil, &CorruptError{Offset: c.Offset(), Reason: reason}
			}
			c.off, c.seen = c.off+n, 0
			return rec, line, nil
		}
		c.seen = len(rest)
		if c.r == nil {
			if len(rest) == 0 {
				return Record{}, nil, io.EOF
			}
			return Record{}, nil, &CorruptError{Offset: c.Offset(), Reason: truncatedFrame}
		}
		if err := c.fill(); err != nil {
			return Record{}, nil, err
		}
	}
}

// fill reads the next window into a fresh buffer behind the bytes not
// yet cut: a window more than they hold, or, once they hold the start of
// a frame longer than the window, as many again as they hold.
func (c *FrameCutter) fill() error {
	rest := c.buf[c.off:]
	buf := make([]byte, len(rest)+max(c.window, len(rest)))
	copy(buf, rest)
	n, err := io.ReadFull(c.r, buf[len(rest):])
	c.base += int64(c.off)
	c.buf, c.off = buf[:len(rest)+n], 0
	c.reads++
	switch err {
	case nil:
		return nil
	case io.EOF, io.ErrUnexpectedEOF:
		c.r = nil
		return nil
	}
	return err
}

// SectionWriter frames chunk payloads as one section: frames numbered
// first, first+1, …, written through to w, with a running SHA-256 and
// byte count over the emitted frame bytes.
type SectionWriter struct {
	w      io.Writer
	sum    hash.Hash
	first  uint64
	chunks int
	bytes  int64
}

// NewSectionWriter starts a section on w whose first frame is numbered
// first.
func NewSectionWriter(w io.Writer, first uint64) *SectionWriter {
	return &SectionWriter{w: w, sum: sha256.New(), first: first}
}

// WriteChunk frames the payload under the section's next number and
// writes it through.
func (sw *SectionWriter) WriteChunk(payload []byte) error {
	frame, err := EncodeRecord(sw.first+uint64(sw.chunks), payload)
	if err != nil {
		return err
	}
	if _, err := sw.w.Write(frame); err != nil {
		return fmt.Errorf("wal: section write: %w", err)
	}
	sw.sum.Write(frame)
	sw.chunks++
	sw.bytes += int64(len(frame))
	return nil
}

// Chunks returns the number of chunks written so far.
func (sw *SectionWriter) Chunks() int { return sw.chunks }

// Bytes returns the framed byte count written so far.
func (sw *SectionWriter) Bytes() int64 { return sw.bytes }

// Sum returns the hex SHA-256 of the frame bytes written so far — the
// section's content address.
func (sw *SectionWriter) Sum() string {
	return hex.EncodeToString(sw.sum.Sum(nil))
}
