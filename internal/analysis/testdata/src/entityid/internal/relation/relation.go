// Package relation is a fixture stand-in for the repo's relation
// package: the one tuple codec lives here, so a second one is refused,
// and keys are compared value by value, so a separator byte is refused.
package relation

import (
	"strings"
	"unsafe" // want `import "unsafe": a relation's cells hold no pointer .*\(PR 55\)`
)

type Tuple []string

// cellBytes would size a cell through unsafe.
var cellBytes = unsafe.Sizeof(Tuple(nil))

func EncodeTuple(t Tuple) []byte { return nil } // want `func EncodeTuple: a tuple has one serialised form .*\(PR 24\)`

func jsonToValue(v any) []any { return nil } // want `func jsonToValue: a tuple has one` `\[\]any: a tuple has one`

func (t Tuple) Key() string {
	return strings.Join(t, "\x1f") // want `literal "\\x1f" holds "\\x1f": a key or an ILFD condition set .*\(PR 29\)`
}

func (t Tuple) appendKey(b []byte) []byte {
	return append(b, '\x1e') // want `literal '\\x1e' holds "\\x1e"`
}

// A number typed byte or rune is the character it stands for.
func (t Tuple) appendSep(b []byte) []byte {
	return append(b, 0x1f) // want `literal 0x1f holds "\\x1f": a key or an ILFD condition set .*\(PR 29\)`
}

func (t Tuple) writeSeps(b *strings.Builder) {
	b.WriteByte(31)   // want `literal 31 holds "\\x1f"`
	b.WriteRune(0x1c) // want `literal 0x1c holds "\\x1c"`
}

// Silent: an untyped int constant is no character, whatever its value;
// a byte that is no separator is none either; a length prefix needs no
// separator.
const width = 0x1f

func (t Tuple) terminate(b []byte) []byte { return append(b, 0x0a) }

func (t Tuple) prefixedKey() string { return string(rune(len(t))) + strings.Join(t, "") }

func decodeRow(b []byte) []interface{} { return nil } // want `\[\]interface\{\}: a tuple has one`

// Silent: the array codec is declared here; a call outside the run
// record's codec is refused.
func AppendTuplesJSON(b []byte, ts []Tuple) []byte { return b }

type TupleBlocks struct{}

func (tb *TupleBlocks) ParseTuplesJSON(dst []Tuple, b []byte) ([]Tuple, error) { return dst, nil }
