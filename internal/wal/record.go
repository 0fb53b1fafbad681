// Typed WAL records: the JSON payloads the hub appends, plus the
// encoders/decoders between the on-disk DTOs and the domain types
// (schemas, ILFDs, identity/distinctness rules, attribute maps).
// Decoding always re-runs the domain constructors — schema.New,
// ilfd.New, rules.NewIdentity/NewDistinctness — so a log record that was
// valid when written is re-validated on replay, and a
// corrupted-but-CRC-clean payload still cannot smuggle an ill-formed
// rule into a recovered hub.
//
// A tuple is not a DTO of this package: the records that carry tuples
// (insert, add_source, source_chunk) hold the tuple codec's bytes
// (internal/relation/json.go) as raw JSON, which their reader parses
// against the schema the record's source logged first, and are written
// with "v":2 (TupleFormat); one of the format before — {"k":…,"v":…} per
// value, no "v" — is refused by both numbers. ValueRec, that kind-tagged
// form, remains for the values no schema describes: ILFD conditions and
// rule constants inside link records.
package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// The record types. A jumbo source registration whose seed relation
// would overflow one frame is logged as a source_begin record followed
// by source_chunk continuation records; the group commits atomically at
// the final chunk, and replay discards a group the log abandons
// mid-way (a crashed or failed AddSource was never acknowledged).
const (
	TypeAddSource   = "add_source"
	TypeLink        = "link"
	TypeInsert      = "insert"
	TypeSourceBegin = "source_begin"
	TypeSourceChunk = "source_chunk"
)

// TupleFormat is the format of the records that carry tuples, written
// as the envelope's "v"; every other record is format 1 and carries no
// "v".
const TupleFormat = 2

// Envelope is the one-of payload wrapper; exactly the body named by
// Type is set. Encode sets V.
type Envelope struct {
	Type        string          `json:"type"`
	V           int             `json:"v,omitempty"`
	AddSource   *AddSourceRec   `json:"add_source,omitempty"`
	Link        *LinkRec        `json:"link,omitempty"`
	Insert      *InsertRec      `json:"insert,omitempty"`
	SourceBegin *SourceBeginRec `json:"source_begin,omitempty"`
	SourceChunk *SourceChunkRec `json:"source_chunk,omitempty"`
}

// bodies counts the set body pointers and reports whether the one
// matching Type is among them.
func (e Envelope) bodyOK() bool {
	set := 0
	for _, present := range []bool{e.AddSource != nil, e.Link != nil, e.Insert != nil, e.SourceBegin != nil, e.SourceChunk != nil} {
		if present {
			set++
		}
	}
	if set != 1 {
		return false
	}
	switch e.Type {
	case TypeAddSource:
		return e.AddSource != nil
	case TypeLink:
		return e.Link != nil
	case TypeInsert:
		return e.Insert != nil
	case TypeSourceBegin:
		return e.SourceBegin != nil
	case TypeSourceChunk:
		return e.SourceChunk != nil
	}
	return false
}

// v is the "v" a record of e's type carries: TupleFormat on the three
// that hold tuples, none — format 1 — on the rest.
func (e Envelope) v() int {
	switch e.Type {
	case TypeAddSource, TypeInsert, TypeSourceChunk:
		return TupleFormat
	}
	return 0
}

// Encode marshals the envelope after checking the body matches Type.
func (e Envelope) Encode() ([]byte, error) {
	if !e.bodyOK() {
		return nil, fmt.Errorf("wal: envelope type %q does not match its body", e.Type)
	}
	e.V = e.v()
	return json.Marshal(e)
}

// AppendInsert appends an insert record's payload: byte for byte what
// Encode marshals for it, by appends alone — it is the one record a
// commit encodes.
func AppendInsert(b []byte, source string, t relation.Tuple) []byte {
	b = append(b, `{"type":"insert","v":2,"insert":{"source":`...)
	b = value.AppendJSONString(b, source)
	b = append(b, `,"tuple":`...)
	b = relation.AppendTupleJSON(b, t)
	return append(b, "}}"...)
}

// ParseInsert is AppendInsert's inverse, read by slicing alone: it cuts
// a payload spelled as AppendInsert spells it into its source — one that
// needs no escape and is UTF-8, so its bytes are its name — and the bytes
// between `"tuple":` and the closing "}}", both aliasing the payload.
// The tuple bytes are not checked here: the caller reads them with
// relation.ParseTupleJSON, which takes a JSON array of scalars and
// nothing after it, and only then is the payload the insert
// DecodeEnvelope reads, with the same source and a tuple that parses the
// same. Any other payload — an escaped or non-UTF-8 source, any other
// shape, a tuple that does not parse — is DecodeEnvelope's to read or
// refuse.
func ParseInsert(payload []byte) (source, tuple []byte, ok bool) {
	rest, ok := bytes.CutPrefix(payload, []byte(`{"type":"insert","v":2,"insert":{"source":"`))
	if !ok {
		return nil, nil, false
	}
	end := bytes.IndexByte(rest, '"')
	if end < 0 || !plainJSON(rest[:end]) || !utf8.Valid(rest[:end]) {
		return nil, nil, false
	}
	name := rest[:end]
	if rest, ok = bytes.CutPrefix(rest[end+1:], []byte(`,"tuple":`)); ok {
		tuple, ok = bytes.CutSuffix(rest, []byte("}}"))
	}
	if !ok {
		return nil, nil, false
	}
	return name, tuple, true
}

// plainJSON reports whether s may stand inside a JSON string as itself:
// no escape and no control character.
func plainJSON(s []byte) bool {
	for _, c := range s {
		if c < ' ' || c == '\\' {
			return false
		}
	}
	return true
}

// DecodeEnvelope unmarshals a record payload and checks the body.
func DecodeEnvelope(payload []byte) (Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(payload, &e); err != nil {
		return Envelope{}, fmt.Errorf("wal: decode envelope: %w", err)
	}
	switch e.Type {
	case TypeAddSource, TypeLink, TypeInsert, TypeSourceBegin, TypeSourceChunk:
		if !e.bodyOK() {
			return Envelope{}, fmt.Errorf("wal: %s record without matching body", e.Type)
		}
		if e.V != e.v() {
			return Envelope{}, fmt.Errorf("wal: %s record of format %d, this build reads %d", e.Type, max(e.V, 1), max(e.v(), 1))
		}
	default:
		return Envelope{}, fmt.Errorf("wal: unknown record type %q", e.Type)
	}
	return e, nil
}

// AddSourceRec registers a source: its schema and the seed tuples it
// was registered with (relation.AppendTuplesJSON's array).
type AddSourceRec struct {
	Name   string          `json:"name"`
	Schema SchemaRec       `json:"schema"`
	Tuples json.RawMessage `json:"tuples"`
}

// SourceBeginRec opens a chunked source registration: the schema comes
// first, the seed tuples follow in source_chunk records, and nothing
// commits until the final chunk arrives.
type SourceBeginRec struct {
	Name   string    `json:"name"`
	Schema SchemaRec `json:"schema"`
}

// SourceChunkRec is one continuation batch of a chunked source
// registration. Final marks the commit point of the group.
type SourceChunkRec struct {
	Name   string          `json:"name"`
	Tuples json.RawMessage `json:"tuples"`
	Final  bool            `json:"final,omitempty"`
}

// LinkRec is a pair link: the full per-pair identification knowledge.
type LinkRec struct {
	Left         string       `json:"left"`
	Right        string       `json:"right"`
	Attrs        []AttrMapRec `json:"attrs"`
	ExtKey       []string     `json:"extkey,omitempty"`
	ILFDs        []ILFDRec    `json:"ilfds,omitempty"`
	Identity     []RuleRec    `json:"identity,omitempty"`
	Distinct     []RuleRec    `json:"distinct,omitempty"`
	DeriveMode   int          `json:"derive_mode,omitempty"`
	DisableProp1 bool         `json:"disable_prop1,omitempty"`
}

// InsertRec is one committed tuple insert (relation.AppendTupleJSON's
// array).
type InsertRec struct {
	Source string          `json:"source"`
	Tuple  json.RawMessage `json:"tuple"`
}

// ValueRec encodes a typed value where no schema says its kind (an ILFD
// condition, a rule constant): the kind name plus the value's canonical
// text. Unlike value.Parse, decoding never folds the texts "null" or ""
// into NULL — the kind field alone decides.
type ValueRec struct {
	Kind string `json:"k"`
	Text string `json:"v,omitempty"`
}

// EncodeValue converts a value.
func EncodeValue(v value.Value) ValueRec {
	if v.IsNull() {
		return ValueRec{Kind: "null"}
	}
	return ValueRec{Kind: v.Kind().String(), Text: v.String()}
}

// DecodeValue restores a value.
func DecodeValue(r ValueRec) (value.Value, error) {
	switch r.Kind {
	case "null":
		return value.Null, nil
	case "string":
		return value.String(r.Text), nil
	case "int":
		i, err := strconv.ParseInt(r.Text, 10, 64)
		if err != nil {
			return value.Null, fmt.Errorf("wal: int value %q: %w", r.Text, err)
		}
		return value.Int(i), nil
	case "float":
		f, err := strconv.ParseFloat(r.Text, 64)
		if err != nil {
			return value.Null, fmt.Errorf("wal: float value %q: %w", r.Text, err)
		}
		return value.Float(f), nil
	case "bool":
		b, err := strconv.ParseBool(r.Text)
		if err != nil {
			return value.Null, fmt.Errorf("wal: bool value %q: %w", r.Text, err)
		}
		return value.Bool(b), nil
	default:
		return value.Null, fmt.Errorf("wal: unknown value kind %q", r.Kind)
	}
}

// SchemaRec encodes a relation schema.
type SchemaRec struct {
	Name  string     `json:"name"`
	Attrs []AttrRec  `json:"attrs"`
	Keys  [][]string `json:"keys"`
}

// AttrRec is one schema attribute.
type AttrRec struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// EncodeSchema converts a schema.
func EncodeSchema(s *schema.Schema) SchemaRec {
	r := SchemaRec{Name: s.Name(), Keys: s.Keys()}
	for _, a := range s.Attrs() {
		r.Attrs = append(r.Attrs, AttrRec{Name: a.Name, Kind: a.Kind.String()})
	}
	return r
}

// DecodeSchema restores a schema through schema.New (re-validated).
func DecodeSchema(r SchemaRec) (*schema.Schema, error) {
	attrs := make([]schema.Attribute, len(r.Attrs))
	for i, a := range r.Attrs {
		k, err := value.ParseKind(a.Kind)
		if err != nil {
			return nil, fmt.Errorf("wal: schema %s attribute %q: %w", r.Name, a.Name, err)
		}
		attrs[i] = schema.Attribute{Name: a.Name, Kind: k}
	}
	s, err := schema.New(r.Name, attrs, r.Keys...)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return s, nil
}

// AttrMapRec is one attribute correspondence.
type AttrMapRec struct {
	Name string `json:"name"`
	R    string `json:"r,omitempty"`
	S    string `json:"s,omitempty"`
}

// EncodeAttrMaps converts attribute correspondences.
func EncodeAttrMaps(ams []match.AttrMap) []AttrMapRec {
	out := make([]AttrMapRec, len(ams))
	for i, am := range ams {
		out[i] = AttrMapRec{Name: am.Name, R: am.R, S: am.S}
	}
	return out
}

// DecodeAttrMaps restores attribute correspondences.
func DecodeAttrMaps(rs []AttrMapRec) []match.AttrMap {
	out := make([]match.AttrMap, len(rs))
	for i, r := range rs {
		out[i] = match.AttrMap{Name: r.Name, R: r.R, S: r.S}
	}
	return out
}

// ILFDRec encodes one instance-level functional dependency.
type ILFDRec struct {
	Ante []CondRec `json:"ante"`
	Cons []CondRec `json:"cons"`
}

// CondRec is one ILFD proposition symbol.
type CondRec struct {
	Attr string   `json:"attr"`
	Val  ValueRec `json:"val"`
}

func encodeConds(cs ilfd.Conditions) []CondRec {
	out := make([]CondRec, len(cs))
	for i, c := range cs {
		out[i] = CondRec{Attr: c.Attr, Val: EncodeValue(c.Val)}
	}
	return out
}

func decodeConds(rs []CondRec) (ilfd.Conditions, error) {
	out := make(ilfd.Conditions, len(rs))
	for i, r := range rs {
		v, err := DecodeValue(r.Val)
		if err != nil {
			return nil, err
		}
		out[i] = ilfd.Condition{Attr: r.Attr, Val: v}
	}
	return out, nil
}

// EncodeILFDs converts an ILFD set.
func EncodeILFDs(fs ilfd.Set) []ILFDRec {
	if len(fs) == 0 {
		return nil
	}
	out := make([]ILFDRec, len(fs))
	for i, f := range fs {
		out[i] = ILFDRec{Ante: encodeConds(f.Antecedent), Cons: encodeConds(f.Consequent)}
	}
	return out
}

// DecodeILFDs restores an ILFD set through ilfd.New (re-validated).
func DecodeILFDs(rs []ILFDRec) (ilfd.Set, error) {
	if len(rs) == 0 {
		return nil, nil
	}
	out := make(ilfd.Set, len(rs))
	for i, r := range rs {
		ante, err := decodeConds(r.Ante)
		if err != nil {
			return nil, err
		}
		cons, err := decodeConds(r.Cons)
		if err != nil {
			return nil, err
		}
		f, err := ilfd.New(ante, cons)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		out[i] = f
	}
	return out, nil
}

// RuleRec encodes an identity or distinctness rule.
type RuleRec struct {
	Name  string    `json:"name"`
	Preds []PredRec `json:"preds"`
}

// PredRec is one rule predicate.
type PredRec struct {
	Left  OperandRec `json:"left"`
	Op    int        `json:"op"`
	Right OperandRec `json:"right"`
}

// OperandRec is an attribute reference (Side/Attr) or a constant.
type OperandRec struct {
	Side  int       `json:"side,omitempty"`
	Attr  string    `json:"attr,omitempty"`
	Const *ValueRec `json:"const,omitempty"`
}

func encodeOperand(o rules.Operand) OperandRec {
	if o.IsConst() {
		v := EncodeValue(o.Const)
		return OperandRec{Const: &v}
	}
	return OperandRec{Side: int(o.Side), Attr: o.Attr}
}

func decodeOperand(r OperandRec) (rules.Operand, error) {
	if r.Const != nil {
		v, err := DecodeValue(*r.Const)
		if err != nil {
			return rules.Operand{}, err
		}
		return rules.Const(v), nil
	}
	if r.Side != int(rules.E1) && r.Side != int(rules.E2) {
		return rules.Operand{}, fmt.Errorf("wal: operand side %d", r.Side)
	}
	return rules.Operand{Side: rules.Side(r.Side), Attr: r.Attr}, nil
}

func encodePreds(ps []rules.Predicate) []PredRec {
	out := make([]PredRec, len(ps))
	for i, p := range ps {
		out[i] = PredRec{Left: encodeOperand(p.Left), Op: int(p.Op), Right: encodeOperand(p.Right)}
	}
	return out
}

func decodePreds(rs []PredRec) ([]rules.Predicate, error) {
	out := make([]rules.Predicate, len(rs))
	for i, r := range rs {
		l, err := decodeOperand(r.Left)
		if err != nil {
			return nil, err
		}
		rt, err := decodeOperand(r.Right)
		if err != nil {
			return nil, err
		}
		if r.Op < int(rules.Eq) || r.Op > int(rules.Ge) {
			return nil, fmt.Errorf("wal: predicate operator %d", r.Op)
		}
		out[i] = rules.Predicate{Left: l, Op: rules.Op(r.Op), Right: rt}
	}
	return out, nil
}

// EncodeIdentityRules converts identity rules.
func EncodeIdentityRules(rs []rules.IdentityRule) []RuleRec {
	if len(rs) == 0 {
		return nil
	}
	out := make([]RuleRec, len(rs))
	for i, r := range rs {
		out[i] = RuleRec{Name: r.Name, Preds: encodePreds(r.Preds)}
	}
	return out
}

// DecodeIdentityRules restores identity rules through rules.NewIdentity
// (well-formedness re-validated).
func DecodeIdentityRules(rs []RuleRec) ([]rules.IdentityRule, error) {
	if len(rs) == 0 {
		return nil, nil
	}
	out := make([]rules.IdentityRule, len(rs))
	for i, r := range rs {
		preds, err := decodePreds(r.Preds)
		if err != nil {
			return nil, err
		}
		rule, err := rules.NewIdentity(r.Name, preds)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		out[i] = rule
	}
	return out, nil
}

// EncodeDistinctnessRules converts distinctness rules.
func EncodeDistinctnessRules(rs []rules.DistinctnessRule) []RuleRec {
	if len(rs) == 0 {
		return nil
	}
	out := make([]RuleRec, len(rs))
	for i, r := range rs {
		out[i] = RuleRec{Name: r.Name, Preds: encodePreds(r.Preds)}
	}
	return out
}

// DecodeDistinctnessRules restores distinctness rules through
// rules.NewDistinctness (re-validated).
func DecodeDistinctnessRules(rs []RuleRec) ([]rules.DistinctnessRule, error) {
	if len(rs) == 0 {
		return nil, nil
	}
	out := make([]rules.DistinctnessRule, len(rs))
	for i, r := range rs {
		preds, err := decodePreds(r.Preds)
		if err != nil {
			return nil, err
		}
		rule, err := rules.NewDistinctness(r.Name, preds)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		out[i] = rule
	}
	return out, nil
}
