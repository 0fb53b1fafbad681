// A value as a JSON scalar — its one spelling on the wire, in the log
// and in snapshots. The scalar carries no kind: the reader supplies the
// attribute's. AppendJSON writes byte for byte what encoding/json writes
// for the same Go value (cmd/entityidd's render_test.go holds it to
// that); ParseJSON reads back exactly the value written — String("") and
// String("null") as themselves, NULL only from null — and whatever else
// JSON spells the same scalar, or a string holding Parse's text.
package value

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// plainByte is 1 for each byte AppendJSONString copies unchanged: ASCII
// from the space up, except ", \, <, > and &. AppendJSONString asks it
// about four bytes a step up to the first byte outside it, so a string
// with nothing to escape costs one walk over the table and one append of
// the whole string; from there the escape loop keeps the plain run in
// front and asks the table about every later byte.
var plainByte = func() (t [256]uint8) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		if !strings.ContainsRune(`"\<>&`, c) {
			t[c] = 1
		}
	}
	return t
}()

// plainRun returns the length of s's longest prefix of bytes plainByte
// marks, asking the table about four bytes a step.
func plainRun(s string) int {
	i := 0
	for i+4 <= len(s) && plainByte[s[i]]&plainByte[s[i+1]]&plainByte[s[i+2]]&plainByte[s[i+3]] != 0 {
		i += 4
	}
	for i < len(s) && plainByte[s[i]] != 0 {
		i++
	}
	return i
}

// VerbatimJSON reports whether AppendJSONString writes s unchanged
// between its quotes: every byte is one plainByte marks. It is the
// encoder's own test, stricter than PlainJSONString's, which reads back
// <, >, & and any UTF-8 — bytes the encoder escapes or walks rune by rune.
func VerbatimJSON(s string) bool { return plainRun(s) == len(s) }

// AppendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping on (its default): ", \ and control characters
// escaped, <, > and & as \u00XX, U+2028/2029 as \u202X, invalid UTF-8
// as \ufffd.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	i, start := plainRun(s), 0
	for i < len(s) {
		c := s[i]
		if plainByte[c] != 0 {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends f in encoding/json's number form: ES6-style,
// exponent notation below 1e-6 and from 1e21, exponents unpadded. JSON
// has no NaN or infinity (encoding/json refuses them); those are written
// as the string Parse reads back into the same float ("NaN", "+Inf",
// "-Inf").
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return AppendJSONString(b, strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendJSON appends v as a JSON scalar.
func AppendJSON(b []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(b, "null"...)
	case KindInt:
		return strconv.AppendInt(b, int64(v.n), 10)
	case KindFloat:
		return appendJSONFloat(b, math.Float64frombits(v.n))
	case KindBool:
		return strconv.AppendBool(b, v.n != 0)
	default:
		return AppendJSONString(b, v.s)
	}
}

// PlainJSONString returns the bytes between the quotes of the JSON
// string at the front of b when they are the string itself — no escape,
// no control character, only UTF-8 — and what follows it; ok is false
// for any other scalar, which ParseJSON reads. verbatim is VerbatimJSON
// of those bytes, judged in the same walk: plain is the decoder's test,
// and verbatim the encoder's, which plain strings holding <, >, & or
// anything past ASCII fail.
func PlainJSONString(b []byte) (s, rest []byte, verbatim, ok bool) {
	n, plain, verbatim := scalarLen(b)
	if !plain {
		return nil, b, false, false
	}
	return b[1 : n-1], b[n:], verbatim, true
}

// ParseJSON reads the JSON scalar at the front of b as a value of kind
// k and returns what follows it. null is NULL for every kind; a string
// is itself for KindString and Parse's reading of its text for any
// other; a number is an int when it is a whole number in int64 (digits
// are read exactly, any other notation through float64) or a float;
// true and false are bools. Anything else — an array, an object, a
// scalar of another kind, malformed JSON — is an error.
func ParseJSON(b []byte, k Kind) (Value, []byte, error) {

	n, plain, _ := scalarLen(b)
	tok, rest := b[:n], b[n:]
	switch {
	case n > 0 && tok[0] == '"':
		// A plain string is its own bytes; one with escapes, control
		// characters or bytes that are not UTF-8 is encoding/json's to
		// decode or refuse.
		var s string
		var err error
		if plain {
			s = string(tok[1 : n-1])
		} else if s, err = unquoteJSON(tok); err != nil {
			return Null, b, err
		}
		if k == KindString {
			return String(s), rest, nil
		}
		v, err := Parse(s, k)
		return v, rest, err
	case string(tok) == "null":
		return Null, rest, nil
	case string(tok) == "true" || string(tok) == "false":
		if k != KindBool {
			return Null, b, fmt.Errorf("bool for %s attribute", k)
		}
		return Bool(tok[0] == 't'), rest, nil
	case n > 0 && tok[0] != '[' && tok[0] != '{' && json.Valid(tok): // the scalars left are numbers
		v, err := numberFromJSON(string(tok), k)
		return v, rest, err
	}
	return Null, b, fmt.Errorf("%q is no JSON scalar", tok)
}

// unquoteJSON is apart so that only a string that needs it pays for the
// variable encoding/json decodes into.
func unquoteJSON(tok []byte) (s string, err error) {
	err = json.Unmarshal(tok, &s)
	return s, err
}

// scalarLen returns the length of the token at the front of b: a string
// through its closing quote — plain when it has one and holds no escape,
// no control character and only UTF-8, verbatim when every byte of it is
// one plainByte marks (and so ASCII, which needs no UTF-8 check) — or
// anything else up to the next array punctuation or space.
func scalarLen(b []byte) (n int, plain, verbatim bool) {
	if len(b) > 0 && b[0] == '"' {
		plain = true
		v := uint8(1)
		for i := 1; i < len(b); i++ {
			c := b[i]
			switch {
			case c == '"':
				// v != 0: every byte was plainByte's, ASCII with no escape
				// and no control character.
				return i + 1, plain && (v != 0 || utf8.Valid(b[1:i])), v != 0
			case c == '\\':
				i++
				plain = false
			case c < ' ':
				plain = false
			}
			v &= plainByte[c]
		}
		return len(b), false, false
	}
	for n < len(b) && strings.IndexByte(",] \t\r\n", b[n]) < 0 {
		n++
	}
	return n, false, false
}

// numberFromJSON types a JSON number literal: Parse reads a float and an
// int spelled in plain digits; an int spelled any other way goes through
// float64, which decides whether it is whole and in range — as it did
// for every number when encoding/json carried them.
func numberFromJSON(lit string, k Kind) (Value, error) {
	if k != KindInt && k != KindFloat {
		return Null, fmt.Errorf("number %s for %s attribute", lit, k)
	}
	v, err := Parse(lit, k)
	if err == nil || k == KindFloat {
		return v, err
	}
	f, _ := strconv.ParseFloat(lit, 64)
	if f != math.Trunc(f) {
		return Null, fmt.Errorf("non-integer %v for int attribute", f)
	}
	// Both bounds are exact float64 values (-2^63 is representable; 2^63
	// is the first excluded value), and float→int conversion out of
	// range is implementation-defined in Go: check first.
	if f < math.MinInt64 || f >= -(math.MinInt64) {
		return Null, fmt.Errorf("integer %v overflows int64", f)
	}
	return Int(int64(f)), nil
}
