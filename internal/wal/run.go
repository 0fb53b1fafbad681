package wal

import (
	"bytes"
	"fmt"
	"unicode/utf8"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// A run record is the one record that carries tuples: a run of one
// source's tuples, the source named in every record, the tuples as the
// tuple codec's array (internal/relation/json.go), read against the
// source's schema. A log insert is a run of one; a registration is its
// source_begin record and then the run of its seed tuples; a snapshot
// segment file is a sequence of them, each source's run in turn. A run too long for one frame continues in
// the next record, each record but the last marked "more". The spelling
// is one, its fields in this order, the bracketed one only when set:
//
//	{"source":S[,"more":true],"tuples":[…]}
//
// AppendRun writes it by appends alone, and CutRun reads it by slicing: a
// payload spelled any other way was not written by this format and is
// refused.
const runPrefix = `{"source":`

// AppendRun appends a run record's payload: source's tuples ts — a
// relation's rows, or tuples the caller holds (relation.RowsOf) — marked
// more when the run continues in the next record.
func AppendRun(b []byte, source string, more bool, ts relation.Rows) []byte {
	b = value.AppendJSONString(append(b, runPrefix...), source)
	if more {
		b = append(b, `,"more":true`...)
	}
	b = relation.AppendTuplesJSON(append(b, `,"tuples":`...), ts)
	return append(b, '}')
}

// IsRun reports whether payload is spelled as a run record begins, so
// that CutRun, not DecodeEnvelope, is the reader to refuse it or read it.
func IsRun(payload []byte) bool { return bytes.HasPrefix(payload, []byte(runPrefix)) }

// Run is a run record CutRun has cut: the name of its source — the
// payload's own bytes when the name needs no escape, as the writer spells
// every name that is plain UTF-8 — whether the run continues in the next
// record, and its tuples, which Tuples reads.
type Run struct {
	Source []byte
	More   bool
	tuples []byte
}

// CutRun cuts a run record's payload, spelled as AppendRun spells it, by
// slicing alone. The tuples are not read here: Tuples reads them against
// the schema the source's name finds.
func CutRun(payload []byte) (Run, error) {
	var r Run
	p, ok := bytes.CutPrefix(payload, []byte(runPrefix))
	if ok {
		r.Source, p, ok = cutName(p)
	}
	if ok {
		p, r.More = bytes.CutPrefix(p, []byte(`,"more":true`))
		p, ok = bytes.CutPrefix(p, []byte(`,"tuples":`))
	}
	// The tuples are the record's last field, an array from the colon to
	// the closing brace; what is inside it is the tuple codec's to read.
	if ok {
		r.tuples, ok = bytes.CutSuffix(p, []byte("}"))
		ok = ok && len(r.tuples) > 1 && r.tuples[0] == '[' && r.tuples[len(r.tuples)-1] == ']'
	}
	if !ok {
		return Run{}, fmt.Errorf("wal: not spelled as this format writes a run (byte %d)", len(payload)-len(p))
	}
	return r, nil
}

// cutName cuts the JSON string at the front of p, a source's name, which
// is not empty: its bytes, aliasing p when it holds no escape, no control
// character and only UTF-8 — so that reading a log insert allocates
// nothing for its name — else its decoding.
func cutName(p []byte) (name, rest []byte, ok bool) {
	if len(p) < 2 || p[0] != '"' {
		return nil, p, false
	}
	end := bytes.IndexByte(p[1:], '"') + 1
	if end > 1 && utf8.Valid(p[1:end]) && bytes.IndexFunc(p[1:end], func(r rune) bool { return r < ' ' || r == '\\' }) < 0 {
		return p[1:end], p[end+1:], true
	}
	v, rest, err := value.ParseJSON(p, value.KindString)
	if err != nil || v.Str() == "" {
		return nil, p, false
	}
	return []byte(v.Str()), rest, true
}

// Tuples reads the run's tuples over sch into rows of tb's blocks and
// returns them; on an error tb holds the rows it held.
func (r Run) Tuples(tb *relation.TupleBlocks, sch *schema.Schema) (relation.Rows, error) {
	return tb.ParseTuplesJSON(sch, r.tuples)
}
