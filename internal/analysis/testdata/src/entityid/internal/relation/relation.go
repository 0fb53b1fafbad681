// Package relation is a fixture stand-in for the repo's relation
// package: the one tuple codec lives here, so a second one is refused,
// and keys are compared value by value, so a separator byte is refused.
package relation

import "strings"

type Tuple []string

func EncodeTuple(t Tuple) []byte { return nil } // want `func EncodeTuple: a tuple has one serialised form .*\(PR 24\)`

func jsonToValue(v any) []any { return nil } // want `func jsonToValue: a tuple has one` `\[\]any: a tuple has one`

func (t Tuple) Key() string {
	return strings.Join(t, "\x1f") // want `literal "\\x1f" holds "\\x1f": a key or an ILFD condition set .*\(PR 29\)`
}

func (t Tuple) appendKey(b []byte) []byte {
	return append(b, '\x1e') // want `literal '\\x1e' holds "\\x1e"`
}

// Silent: a number is not a string or rune literal, whatever its value;
// a length prefix needs no separator.
const width = 0x1f

func (t Tuple) prefixedKey() string { return string(rune(len(t))) + strings.Join(t, "") }

func decodeRow(b []byte) []interface{} { return nil } // want `\[\]interface\{\}: a tuple has one`

// Silent: the array codec is declared here; a call outside the run
// record's codec is refused.
func AppendTuplesJSON(b []byte, ts []Tuple) []byte { return b }

type TupleBlocks struct{}

func (tb *TupleBlocks) ParseTuplesJSON(dst []Tuple, b []byte) ([]Tuple, error) { return dst, nil }
