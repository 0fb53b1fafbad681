// Package value implements the typed attribute values used throughout the
// entity-identification system: strings, integers, floats, booleans and the
// NULL value that marks missing information.
//
// The comparison semantics follow the paper's prototype (Lim et al., §6.2):
// NULL is an ordinary symbol for storage purposes, but it must never compare
// equal to another NULL during matching. Equal implements that null-safe
// equality (the prototype's non_null_eq predicate); Identical implements the
// storage-level equality in which NULL equals NULL (used when deciding
// whether a derived value conflicts with an existing one).
package value

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind int

// The kinds of values. KindNull is the zero Kind so that the zero Value is
// NULL: a freshly extended attribute is missing until something derives it.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind is the inverse of Kind.String over the kinds an attribute
// can be declared as, spelled exactly so. "null" is refused with
// everything else: KindNull is the kind of the NULL value, and a schema
// reads it as "undeclared". What a front door accepts beyond that (a
// missing kind, the CSV header's aliases) is that door's layer over this.
func ParseKind(s string) (Kind, error) {
	for k := KindString; k <= KindBool; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return KindNull, fmt.Errorf("unknown kind %q", s)
}

// Value is an immutable typed attribute value. The zero Value is NULL.
// It is 32 bytes — every tuple cell pays for it — so the three scalar
// kinds share one word: n holds an integer's bits, a float's IEEE bits
// or a boolean's 0/1. That makes == on Values a comparison of bits, which
// Identical is not for floats (NaN, the two zeros): compare with Equal
// and Identical, and key a map with Canon.
type Value struct {
	s    string
	n    uint64
	kind Kind
}

// Null is the NULL value.
var Null = Value{}

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the underlying string. It panics if v is not a string; use
// Kind to test first.
func (v Value) Str() string {
	v.mustBe(KindString)
	return v.s
}

// IntVal returns the underlying integer.
func (v Value) IntVal() int64 {
	v.mustBe(KindInt)
	return int64(v.n)
}

// FloatVal returns the underlying float.
func (v Value) FloatVal() float64 {
	v.mustBe(KindFloat)
	return math.Float64frombits(v.n)
}

// BoolVal returns the underlying boolean.
func (v Value) BoolVal() bool {
	v.mustBe(KindBool)
	return v.n != 0
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("value: %s used as %s", v.kind, k))
	}
}

// String renders the value for display. NULL renders as "null", matching
// the prototype's output format.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	default:
		return "?"
	}
}

// Equal is the matching-level equality used by identity rules and
// extended-key joins: it holds only for two non-NULL values of the same
// kind with equal contents. In particular Equal(Null, Null) is false, the
// prototype's non_null_eq semantics.
func Equal(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return false
	}
	return Identical(a, b)
}

// Identical is storage-level equality: NULL is identical to NULL, and two
// non-NULL values are identical when their kind and contents agree. Use it
// to detect derivation conflicts or duplicate tuples, never to match
// entities.
func Identical(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindNull:
		return true
	case KindString:
		return a.s == b.s
	case KindFloat:
		return math.Float64frombits(a.n) == math.Float64frombits(b.n)
	case KindInt, KindBool:
		return a.n == b.n
	default:
		return false
	}
}

// Canon returns v in the form whose == is Equal: for a and b that each
// equal themselves (neither NULL nor NaN — test Equal(v, v) first),
// Equal(a, b) exactly when a.Canon() == b.Canon(). The negative float
// zero changes, to the positive one it is Identical to, and every NaN to
// one NaN — so that over all values, NULL and NaN included, == on
// canonical forms is equality of Key, the identity a candidate key is
// held to. A map from constants to what they select is keyed so.
func (v Value) Canon() Value {
	if v.kind == KindFloat {
		switch f := math.Float64frombits(v.n); {
		case f == 0:
			v.n = 0
		case f != f:
			v.n = canonNaN
		}
	}
	return v
}

var canonNaN = math.Float64bits(math.NaN())

// Hash hashes the canonical form under seed — kind and word, or a
// string's bytes — so a.Canon() == b.Canon() implies equal hashes. The
// converse is the caller's to verify.
func (v Value) Hash(seed maphash.Seed) uint64 {
	v = v.Canon()
	if v.kind == KindString {
		return maphash.String(seed, v.s)
	}
	var b [9]byte
	b[0] = byte(v.kind)
	binary.LittleEndian.PutUint64(b[1:], v.n)
	return maphash.Bytes(seed, b[:])
}

// Compare orders two values. It returns a negative number, zero or a
// positive number as a sorts before, the same as, or after b. The total
// order is: NULL first, then values grouped by kind (string < int < float <
// bool is arbitrary but fixed), with natural ordering within a kind. Compare
// exists so that relations, tables and reports can be printed
// deterministically; it is not an entity-matching operation.
func Compare(a, b Value) int {
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindInt:
		return cmp.Compare(int64(a.n), int64(b.n))
	case KindFloat:
		switch af, bf := math.Float64frombits(a.n), math.Float64frombits(b.n); {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	case KindBool:
		return cmp.Compare(a.n, b.n)
	default:
		return 0
	}
}

// Less reports whether a sorts strictly before b under Compare.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

// Key returns a string that uniquely encodes the value, suitable for use as
// a map key. Distinct values always produce distinct keys (the kind prefix
// separates, e.g., the string "1" from the integer 1), and values the
// comparison semantics treat as one — the two float zeros — share a key, so
// hash-based joins and key indexes agree with Equal/Identical.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00"
	case KindString:
		return "s:" + v.s
	case KindInt:
		return "i:" + strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		// Canon collapses -0.0 onto +0.0: Identical(−0.0, +0.0) is true.
		return "f:" + strconv.FormatFloat(math.Float64frombits(v.Canon().n), 'b', -1, 64)
	case KindBool:
		return "b:" + strconv.FormatBool(v.n != 0)
	default:
		return "?"
	}
}

// Parse converts text into a value of the given kind. The literal "null"
// (any case) and the empty string parse as NULL for every kind, matching
// the CSV conventions used by the loaders.
func Parse(text string, k Kind) (Value, error) {
	if text == "" || strings.EqualFold(text, "null") {
		return Null, nil
	}
	switch k {
	case KindNull:
		return Null, fmt.Errorf("value: cannot parse %q as null", text)
	case KindString:
		return String(text), nil
	case KindInt:
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("value: parse int %q: %w", text, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Null, fmt.Errorf("value: parse float %q: %w", text, err)
		}
		return Float(f), nil
	case KindBool:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return Null, fmt.Errorf("value: parse bool %q: %w", text, err)
		}
		return Bool(b), nil
	default:
		return Null, fmt.Errorf("value: unknown kind %v", k)
	}
}

// MustParse is Parse that panics on error; intended for literals in tests
// and examples.
func MustParse(text string, k Kind) Value {
	v, err := Parse(text, k)
	if err != nil {
		panic(err)
	}
	return v
}
