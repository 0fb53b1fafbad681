// Section/continuation framing: the primitives behind jumbo logical
// records that do not fit one CRC frame. A *section* is an ordered run
// of frames whose sequence numbers restart at 1 — the hub's chunked
// snapshot stores one section per run of a source's tuples, each in its
// own file, and reads them back independently and in parallel.
//
// SectionWriter frames chunk payloads with section-local sequence
// numbers and maintains a running SHA-256 over the emitted frame bytes,
// so a manifest can carry a content address per section: equal content
// hashes to equal bytes (the frame encoding is canonical), which is
// what lets an incremental snapshot carry unchanged sections forward by
// reference instead of rewriting them.
//
// FrameScanner is the matching reader of a stream, FrameCutter of a
// buffer holding the frames whole — a run file read in one call. Both
// decode consecutive frames by the one frame grammar (parseFrame)
// without enforcing cross-frame sequence contiguity (sections restart
// at 1; the caller checks section-local ordering against the chunk
// counters embedded in its payloads) and hand back the raw frame bytes
// so the caller can re-hash exactly what is on disk.
package wal

import (
	"bufio"
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

// cutFrame decodes line, one frame with its newline, found at offset off.
func cutFrame(line []byte, off int64) (Record, error) {
	rec, reason := parseFrame(line[:len(line)-1])
	if reason != "" {
		return Record{}, &CorruptError{Offset: off, Reason: reason}
	}
	return rec, nil
}

// FrameScanner reads consecutive CRC frames from a stream. It imposes
// no sequence contiguity across frames: the log's segment scan and
// replay track the last sequence number themselves, and callers that
// interleave independent sections in one stream enforce their own
// per-section ordering. Next returns the decoded record plus the raw
// frame bytes (including the trailing newline).
type FrameScanner struct {
	br  *bufio.Reader
	off int64
}

// NewFrameScanner wraps a reader. The read buffer is 64 KiB, or as much
// as the reader says it holds when that is less (io.SectionReader,
// bytes.Reader): a disk-tier page-in scans one ~100-byte frame, and
// reads exactly that.
func NewFrameScanner(r io.Reader) *FrameScanner {
	size := 1 << 16
	if sz, ok := r.(interface{ Size() int64 }); ok && sz.Size() < int64(size) {
		size = int(sz.Size())
	}
	return &FrameScanner{br: bufio.NewReaderSize(r, size)}
}

// Offset returns the byte offset just past the last good frame.
func (s *FrameScanner) Offset() int64 { return s.off }

// Next decodes the next frame. It returns io.EOF at a clean end and a
// *CorruptError when the remaining bytes are not a valid frame.
func (s *FrameScanner) Next() (Record, []byte, error) {
	line, err := s.br.ReadBytes('\n')
	if err == io.EOF {
		if len(line) == 0 {
			return Record{}, nil, io.EOF
		}
		return Record{}, nil, &CorruptError{Offset: s.off, Reason: truncatedFrame}
	}
	if err != nil {
		return Record{}, nil, err
	}
	rec, err := cutFrame(line, s.off)
	if err != nil {
		return Record{}, nil, err
	}
	s.off += int64(len(line))
	return rec, line, nil
}

// FrameCutter is FrameScanner over a buffer that holds the frames whole:
// the same frames and errors, cut in place — each record's payload and
// each raw frame aliases the buffer, nothing is copied.
type FrameCutter struct {
	buf []byte
	off int
}

// NewFrameCutter cuts the frames of b.
func NewFrameCutter(b []byte) *FrameCutter { return &FrameCutter{buf: b} }

// Next cuts the next frame, with FrameScanner.Next's results.
func (c *FrameCutter) Next() (Record, []byte, error) {
	rest := c.buf[c.off:]
	if len(rest) == 0 {
		return Record{}, nil, io.EOF
	}
	n := bytes.IndexByte(rest, '\n') + 1
	if n == 0 {
		return Record{}, nil, &CorruptError{Offset: int64(c.off), Reason: truncatedFrame}
	}
	line := rest[:n:n]
	rec, err := cutFrame(line, int64(c.off))
	if err != nil {
		return Record{}, nil, err
	}
	c.off += n
	return rec, line, nil
}

// SectionWriter frames chunk payloads as one section: frames numbered
// 1..n, written through to w, with a running SHA-256 and byte count
// over the emitted frame bytes.
type SectionWriter struct {
	w      io.Writer
	sum    hash.Hash
	chunks int
	bytes  int64
}

// NewSectionWriter starts a section on w.
func NewSectionWriter(w io.Writer) *SectionWriter {
	return &SectionWriter{w: w, sum: sha256.New()}
}

// WriteChunk frames the payload under the section's next chunk ordinal
// and writes it through.
func (sw *SectionWriter) WriteChunk(payload []byte) error {
	frame, err := EncodeRecord(uint64(sw.chunks+1), payload)
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
