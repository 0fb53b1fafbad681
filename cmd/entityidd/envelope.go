// The request line's envelope, {"source":…,"tuple":[…]}, read without
// encoding/json on the path every line takes. The reading is
// encoding/json's, exactly: json.Unmarshal into insertLine accepts what
// readEnvelope accepts, refuses what it refuses, and yields the same
// source and tuple bytes. The scanner below settles the lines it can
// read in one pass — the whole line checked against the JSON grammar,
// keys in any order and matched as encoding/json matches them (exactly,
// else case-folded, so "Source" and "ſource" are "source"), unknown keys
// skipped, the last of duplicate keys kept, a null source left as it
// was — and hands every other line to json.Unmarshal itself: a key or
// source holding an escape or a byte that is not UTF-8, a source that is
// not a string, anything that is not one object, nesting deeper than
// envelopeDepth, and every malformed line, whose error is then
// encoding/json's own. FuzzEnvelope holds the two to each other.
package main

import (
	"bytes"
	"encoding/json"
	"unicode/utf8"
)

// insertLine is one NDJSON ingest item, its tuple kept as the bytes it
// arrived in for the tuple codec.
type insertLine struct {
	Source string          `json:"source"`
	Tuple  json.RawMessage `json:"tuple"`
}

// envelopeDepth is the deepest nesting the scanner reads itself; a
// deeper line is encoding/json's (whose own limit is 10,000).
const envelopeDepth = 64

// readEnvelope reads one trimmed request line as json.Unmarshal reads it
// into insertLine. The tuple may alias line.
func readEnvelope(line []byte) (insertLine, error) {
	if il, ok := scanEnvelope(line); ok {
		return il, nil
	}
	var il insertLine
	err := json.Unmarshal(line, &il)
	return il, err
}

// scanEnvelope reads line when it can do so exactly as encoding/json
// would and json would accept it; ok is false otherwise.
func scanEnvelope(line []byte) (il insertLine, ok bool) {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return il, false
	}
	i = skipSpace(line, i+1)
	if i < len(line) && line[i] == '}' {
		return il, skipSpace(line, i+1) == len(line)
	}
	for {
		key, end := plainString(line, i)
		if end < 0 {
			return il, false
		}
		i = skipSpace(line, end)
		if i == len(line) || line[i] != ':' {
			return il, false
		}
		i = skipSpace(line, i+1)
		start := i
		if i = skipValue(line, i, 1); i < 0 {
			return il, false
		}
		switch {
		case bytes.EqualFold(key, []byte("source")):
			switch s, end := plainString(line, start); {
			case end == i:
				il.Source = string(s)
			case string(line[start:i]) != "null": // a null leaves the field as it was
				return il, false
			}
		case bytes.EqualFold(key, []byte("tuple")):
			il.Tuple = line[start:i]
		}
		i = skipSpace(line, i)
		switch {
		case i == len(line):
			return il, false
		case line[i] == '}':
			return il, skipSpace(line, i+1) == len(line)
		case line[i] != ',':
			return il, false
		}
		i = skipSpace(line, i+1)
	}
}

// plainString returns the contents of the JSON string at b[i] and the
// offset past it when the string holds no escape and is UTF-8 — its
// bytes are then its value — and end -1 otherwise.
func plainString(b []byte, i int) (s []byte, end int) {
	if i == len(b) || b[i] != '"' {
		return nil, -1
	}
	n := bytes.IndexByte(b[i+1:], '"')
	if n < 0 {
		return nil, -1
	}
	s = b[i+1 : i+1+n]
	for _, c := range s {
		if c < ' ' || c == '\\' {
			return nil, -1
		}
	}
	if !utf8.Valid(s) {
		return nil, -1
	}
	return s, i + n + 2
}

// skipSpace returns the offset of the first byte at or past i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipValue returns the offset past the JSON value at b[i], held to the
// grammar, or -1 when there is none or it nests past envelopeDepth;
// depth is the number of containers around it.
func skipValue(b []byte, i, depth int) int {
	if i == len(b) {
		return -1
	}
	switch c := b[i]; c {
	case '{', '[':
		if depth == envelopeDepth {
			return -1
		}
		closer := byte('}')
		if c == '[' {
			closer = ']'
		}
		i = skipSpace(b, i+1)
		if i < len(b) && b[i] == closer {
			return i + 1
		}
		for {
			if c == '{' {
				if i = skipString(b, i); i < 0 {
					return -1
				}
				if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
					return -1
				}
				i = skipSpace(b, i+1)
			}
			if i = skipValue(b, i, depth+1); i < 0 {
				return -1
			}
			switch i = skipSpace(b, i); {
			case i == len(b):
				return -1
			case b[i] == closer:
				return i + 1
			case b[i] != ',':
				return -1
			}
			i = skipSpace(b, i+1)
		}
	case '"':
		return skipString(b, i)
	case 't':
		return skipWord(b, i, "true")
	case 'f':
		return skipWord(b, i, "false")
	case 'n':
		return skipWord(b, i, "null")
	default:
		return skipNumber(b, i)
	}
}

// skipWord returns the offset past the literal w at b[i], or -1.
func skipWord(b []byte, i int, w string) int {
	if !bytes.HasPrefix(b[i:], []byte(w)) {
		return -1
	}
	return i + len(w)
}

// skipString returns the offset past the JSON string at b[i], or -1: no
// control byte, and every escape one of \" \\ \/ \b \f \n \r \t \uXXXX.
func skipString(b []byte, i int) int {
	if i == len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < ' ':
			return -1
		case c == '\\':
			if i++; i == len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return -1
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		}
	}
	return -1
}

// skipNumber returns the offset past the JSON number at b[i], or -1:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func skipNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i] < '0' || b[i] > '9' {
			return -1
		}
		i = skipDigits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			return -1
		}
		i = skipDigits(b, i)
	}
	return i
}

// skipDigits returns the offset of the first byte at or past i that is
// not a decimal digit.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
