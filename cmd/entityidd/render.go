// The one renderer of everything that shows a cluster: insert acks,
// GET /v1/cluster and each /v1/clusters line are appended into a
// caller-owned []byte, with no intermediate map and no reflection. The
// output is byte for byte what encoding/json writes for the sorted-key
// map form of the same cluster (kept in render_test.go as the reference
// the property test and FuzzClusterJSON hold this file against) — its
// string escaping and float form included.
package main

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"entityid"
	"entityid/internal/value"
)

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on (its default): ", \ and control characters
// escaped, <, > and & as \u00XX, U+2028/2029 as \u202X, invalid UTF-8
// as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
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

// appendFloat appends f in encoding/json's number form: ES6-style,
// exponent notation below 1e-6 and from 1e21, exponents unpadded. JSON
// has no NaN or infinity (encoding/json refuses them, which used to
// drop the whole line); those render as the string the tuple codec
// reads back into the same float ("NaN", "+Inf", "-Inf").
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return appendString(b, strconv.FormatFloat(f, 'g', -1, 64))
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

// appendValue renders a typed value as a JSON scalar.
func appendValue(b []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindNull:
		return append(b, "null"...)
	case value.KindInt:
		return strconv.AppendInt(b, v.IntVal(), 10)
	case value.KindFloat:
		return appendFloat(b, v.FloatVal())
	case value.KindBool:
		return strconv.AppendBool(b, v.BoolVal())
	default:
		return appendString(b, v.Str())
	}
}

// appendMembers renders a member list as an array of
// {"index":…,"source":…,"tuple":[…]} objects.
func appendMembers(b []byte, ms []entityid.ClusterMember) []byte {
	b = append(b, '[')
	for i, m := range ms {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"index":`...)
		b = strconv.AppendInt(b, int64(m.Index), 10)
		b = append(b, `,"source":`...)
		b = appendString(b, m.Source)
		b = append(b, `,"tuple":[`...)
		for j, v := range m.Tuple {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendValue(b, v)
		}
		b = append(b, "]}"...)
	}
	return append(b, ']')
}

// appendCluster renders a cluster, optionally with its merged record:
// {"conflicts":[…],"id":…,"members":[…],"merge_error":…,"merged":{…}},
// keys in that (sorted) order, the merge keys present only when asked
// for and applicable.
func (s *server) appendCluster(b []byte, cl entityid.EntityCluster, merge string) []byte {
	var me *entityid.MergedEntity
	mergeErr := ""
	if merge != "" {
		if strategy, ok := mergeStrategies[merge]; !ok {
			mergeErr = fmt.Sprintf("unknown strategy %q", merge)
		} else if m, err := s.hub.Merged(cl, strategy); err != nil {
			mergeErr = err.Error()
		} else {
			me = m
		}
	}
	b = append(b, '{')
	if me != nil && len(me.Conflicts) > 0 {
		b = append(b, `"conflicts":[`...)
		for i, name := range me.Conflicts {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, name)
		}
		b = append(b, "],"...)
	}
	b = append(b, `"id":`...)
	b = appendString(b, cl.ID)
	b = append(b, `,"members":`...)
	b = appendMembers(b, cl.Members)
	if mergeErr != "" {
		b = append(b, `,"merge_error":`...)
		b = appendString(b, mergeErr)
	}
	if me != nil {
		names := make([]string, 0, len(me.Values))
		for name := range me.Values {
			names = append(names, name)
		}
		slices.Sort(names)
		b = append(b, `,"merged":{`...)
		for i, name := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, name)
			b = append(b, ':')
			b = appendValue(b, me.Values[name])
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendAck renders the result line of one committed insert.
func (s *server) appendAck(b []byte, rec *entityid.HubReceipt) []byte {
	b = append(b, `{"cluster":`...)
	b = s.appendCluster(b, rec.Cluster, "")
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(rec.Index), 10)
	b = append(b, `,"matched":`...)
	b = appendMembers(b, rec.Matched)
	return append(b, `,"ok":true}`+"\n"...)
}
