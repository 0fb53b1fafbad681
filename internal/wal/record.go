// Typed WAL records: the JSON payloads the hub appends, plus the
// encoders/decoders between the on-disk DTOs and the domain types
// (schemas, ILFDs, identity/distinctness rules, attribute maps).
// Decoding always re-runs the domain constructors — schema.New,
// ilfd.New, rules.NewIdentity/NewDistinctness — so a log record that was
// valid when written is re-validated on replay, and a
// corrupted-but-CRC-clean payload still cannot smuggle an ill-formed
// rule into a recovered hub.
//
// A tuple is not a DTO of this package: the one record that carries
// tuples is the run record (run.go), written by appends and read by
// slicing, and encoding/json reads only the envelopes here, which carry
// none — a link, and a source_begin record, which opens a registration
// with its source's schema and says, as its "v" (TupleFormat), the format
// of the runs that follow. A record of an earlier format that carried
// tuples — insert, add_source, source_chunk — is refused by both numbers.
// ValueRec, a kind-tagged value, remains for the values no schema
// describes: ILFD conditions and rule constants inside link records.
package wal

import (
	"encoding/json"
	"fmt"
	"strconv"

	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// The envelope record types. A registration is a source_begin record
// followed by the run records of its seed tuples; the group commits
// atomically at the run's last record, and replay discards a group the
// log abandons mid-way (a crashed or failed AddSource was never
// acknowledged).
const (
	TypeLink        = "link"
	TypeSourceBegin = "source_begin"
)

// TupleFormat is the format of the tuples a log holds: its source_begin
// records carry it as the envelope's "v"; a link record is format 1 and
// carries no "v".
const TupleFormat = 3

// Envelope is the one-of payload wrapper; exactly the body named by
// Type is set. Encode sets V.
type Envelope struct {
	Type        string          `json:"type"`
	V           int             `json:"v,omitempty"`
	Link        *LinkRec        `json:"link,omitempty"`
	SourceBegin *SourceBeginRec `json:"source_begin,omitempty"`
}

// bodyOK reports whether exactly the body Type names is set.
func (e Envelope) bodyOK() bool {
	switch e.Type {
	case TypeLink:
		return e.Link != nil && e.SourceBegin == nil
	case TypeSourceBegin:
		return e.SourceBegin != nil && e.Link == nil
	}
	return false
}

// v is the "v" a record of e's type carries: TupleFormat on source_begin,
// none — format 1 — on a link.
func (e Envelope) v() int {
	if e.Type == TypeSourceBegin {
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

// DecodeEnvelope unmarshals a record payload and checks the body.
func DecodeEnvelope(payload []byte) (Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(payload, &e); err != nil {
		return Envelope{}, fmt.Errorf("wal: decode envelope: %w", err)
	}
	switch e.Type {
	case TypeLink, TypeSourceBegin:
		if !e.bodyOK() {
			return Envelope{}, fmt.Errorf("wal: %s record without matching body", e.Type)
		}
		if e.V != e.v() {
			return Envelope{}, fmt.Errorf("wal: %s record of format %d, this build reads %d", e.Type, max(e.V, 1), max(e.v(), 1))
		}
	case "insert", "add_source", "source_chunk":
		// The records the formats before the run record carried tuples in.
		return Envelope{}, fmt.Errorf("wal: %s record of format %d, this build reads %d", e.Type, max(e.V, 1), TupleFormat)
	default:
		return Envelope{}, fmt.Errorf("wal: unknown record type %q", e.Type)
	}
	return e, nil
}

// SourceBeginRec opens a source registration: the schema comes first,
// the seed tuples follow in run records, and nothing commits until the
// run's last record arrives.
type SourceBeginRec struct {
	Name   string    `json:"name"`
	Schema SchemaRec `json:"schema"`
}

// LinkRec is a pair link: the full per-pair identification knowledge.
type LinkRec struct {
	Left     string       `json:"left"`
	Right    string       `json:"right"`
	Attrs    []AttrMapRec `json:"attrs"`
	ExtKey   []string     `json:"extkey,omitempty"`
	ILFDs    []ILFDRec    `json:"ilfds,omitempty"`
	Identity []RuleRec    `json:"identity,omitempty"`
	Distinct []RuleRec    `json:"distinct,omitempty"`
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
