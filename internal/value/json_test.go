package value

import (
	"encoding/json"
	"testing"
)

// checkJSONString fails unless AppendJSONString, appending to a
// non-empty buffer, writes exactly what json.Marshal writes for s.
func checkJSONString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("json.Marshal(%q): %v", s, err)
	}
	if got := AppendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
		t.Fatalf("AppendJSONString(%q) = %s, want x%s", s, got, want)
	}
}

// TestAppendJSONStringMatchesEncodingJSON puts every single byte, the
// two line separators encoding/json escapes, a lone invalid byte and a
// 3-byte rune at the start, in the middle and at the end of a plain
// run: the plain bytes on either side of an escape must survive it.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	const plain = "greengarden-21027"
	pieces := []string{"\u2028", "\u2029", "\xff", "東"}
	for c := 0; c < 256; c++ {
		pieces = append(pieces, string([]byte{byte(c)}))
	}
	checkJSONString(t, "")
	checkJSONString(t, plain)
	for _, p := range pieces {
		checkJSONString(t, p)
		checkJSONString(t, p+plain)
		checkJSONString(t, plain[:7]+p+plain[7:])
		checkJSONString(t, plain+p)
	}
}

// FuzzAppendJSONString holds AppendJSONString to json.Marshal on any
// string.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "greengarden-21027", `a"b\c`, "<a&b>", "x\x00\x1f\x7f", "Café Zürich – 東京", "\u2028\u2029", "\xff\xfe", "\xe6\x9d"} {
		f.Add(s)
	}
	f.Fuzz(checkJSONString)
}

// BenchmarkAppendJSONString renders strings shaped like the benchmark
// generator's values and a cluster ID (plain), strings that escape
// after 12 plain bytes (escape-late), and non-ASCII text (non-ascii).
func BenchmarkAppendJSONString(b *testing.B) {
	for _, bc := range []struct {
		name string
		in   []string
	}{
		{"plain", []string{"greengarden-21027", "3586 oldcountry st", "mexican", "612-225-6374", "src0/12345"}},
		{"escape-late", []string{`greengarden-"21027`, "3586 oldcoun<try st"}},
		{"non-ascii", []string{"Café Zürich – 東京"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 256)
			for i := 0; i < b.N; i++ {
				for _, s := range bc.in {
					buf = AppendJSONString(buf[:0], s)
				}
			}
		})
	}
}
