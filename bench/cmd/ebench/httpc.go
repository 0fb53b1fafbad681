package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to the daemon, driven
// with pre-rendered request bytes and a minimal response parser: the
// load generator shares two cores with the program it measures, so a
// request costs the driver one write and a few buffered reads.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string, timeout time.Duration) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() } // the reply was already read or abandoned

// renderGet renders a GET request for path.
func renderGet(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// renderPost renders a POST request with a fixed-length body.
func renderPost(path, ctype string, body []byte) []byte {
	b := make([]byte, 0, len(body)+128)
	b = append(b, "POST "+path+" HTTP/1.1\r\nHost: bench\r\nContent-Type: "+ctype+"\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

// do writes one pre-rendered request and reads its whole reply. body
// is reused across calls; the returned slice aliases it.
func (c *conn) do(req []byte, body []byte) (int, []byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	status, chunked, length, err := c.readHead()
	if err != nil {
		return 0, nil, err
	}
	body = body[:0]
	err = c.readBody(chunked, length, func(p []byte) { body = append(body, p...) })
	return status, body, err
}

// readHead reads the status line and headers of one reply.
func (c *conn) readHead() (status int, chunked bool, length int64, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, false, 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, false, 0, fmt.Errorf("malformed status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, false, 0, fmt.Errorf("malformed status line %q", line)
	}
	length = -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, false, 0, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			return status, chunked, length, nil
		}
		name, val, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.ParseInt(string(val), 10, 64); err != nil {
				return 0, false, 0, fmt.Errorf("bad Content-Length %q", val)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		}
	}
}

var errNoFraming = errors.New("reply has neither Content-Length nor chunked encoding")

// readBody reads one reply body, handing each piece to sink as it
// arrives; sink must not keep the slice.
func (c *conn) readBody(chunked bool, length int64, sink func([]byte)) error {
	if !chunked {
		if length < 0 {
			return errNoFraming
		}
		return c.readN(length, sink)
	}
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
		n, err := strconv.ParseInt(string(size), 16, 64)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if n == 0 {
			// No trailers are sent; the terminating CRLF follows.
			_, err = c.br.Discard(2)
			return err
		}
		if err := c.readN(n, sink); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil {
			return err
		}
	}
}

func (c *conn) readN(n int64, sink func([]byte)) error {
	for n > 0 {
		want := int64(c.br.Size())
		if n < want {
			want = n
		}
		p, err := c.br.Peek(int(want))
		if len(p) == 0 {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		sink(p)
		if _, err := c.br.Discard(len(p)); err != nil {
			return err
		}
		n -= int64(len(p))
	}
	return nil
}

// lineSplitter reassembles newline-terminated lines from body pieces.
type lineSplitter struct {
	partial []byte
	line    func([]byte)
}

func (s *lineSplitter) write(p []byte) {
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			s.partial = append(s.partial, p...)
			return
		}
		if len(s.partial) > 0 {
			s.partial = append(s.partial, p[:i]...)
			s.line(s.partial)
			s.partial = s.partial[:0]
		} else {
			s.line(p[:i])
		}
		p = p[i+1:]
	}
}
