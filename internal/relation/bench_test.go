package relation

import (
	"fmt"
	"testing"

	"entityid/internal/schema"
	"entityid/internal/value"
)

var benchSink int

// BenchmarkLookupKey is the read path's key probe, the layer under
// Hub.Lookup: a relation of 100k tuples under a one- and a two-column
// string key, looked up under keys it holds (cycling through all of
// them) and keys it does not.
func BenchmarkLookupKey(b *testing.B) {
	const n = 100_000
	for _, cols := range []int{1, 2} {
		attrs := []schema.Attribute{
			{Name: "id", Kind: value.KindString}, {Name: "sub", Kind: value.KindString},
			{Name: "payload", Kind: value.KindString},
		}
		r := New(schema.MustNew("bench", attrs, []string{"id", "sub"}[:cols]))
		keys := make([][]value.Value, n)
		misses := make([][]value.Value, n)
		for i := range keys {
			tup := Tuple{value.String(fmt.Sprintf("entity-%07d", i)), value.String(fmt.Sprintf("loc-%d", i%97)), value.String("x")}
			if err := r.Insert(tup); err != nil {
				b.Fatal(err)
			}
			keys[i] = tup[:cols]
			misses[i] = Tuple{value.String(fmt.Sprintf("nobody-%07d", i)), tup[1]}[:cols]
		}
		for _, leg := range []struct {
			name string
			keys [][]value.Value
			want func(i int) int
		}{
			{"hit", keys, func(i int) int { return i }},
			{"miss", misses, func(int) int { return -1 }},
		} {
			b.Run(fmt.Sprintf("cols=%d/%s", cols, leg.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k := i % n
					got := r.LookupKey(leg.keys[k]...)
					if got != leg.want(k) {
						b.Fatalf("LookupKey(%v) = %d", leg.keys[k], got)
					}
					benchSink += got
				}
			})
		}
	}
}

// BenchmarkAppendRowJSON renders a filed row from its cells
// (Rows.AppendRowJSON, the daemon's member render) beside the same
// tuple's values through AppendTupleJSON, over the shapes of
// BenchmarkAppendJSONString: the benchmark generator's tuples (plain,
// every string verbatim), strings that escape after 12 plain bytes
// (escape-late) and non-ASCII text (non-ascii), neither verbatim.
func BenchmarkAppendRowJSON(b *testing.B) {
	for _, bc := range []struct {
		name string
		in   []string
	}{
		{"plain", []string{"greengarden-21027", "3586 oldcountry st", "mexican", "612-225-6374"}},
		{"escape-late", []string{`greengarden-"21027`, "3586 oldcoun<try st", "mexican", "612-225-6374"}},
		{"non-ascii", []string{"Café Zürich – 東京", "3586 oldcountry st", "mexican", "612-225-6374"}},
	} {
		attrs := make([]schema.Attribute, len(bc.in))
		tup := make(Tuple, len(bc.in))
		for i, s := range bc.in {
			attrs[i] = schema.Attribute{Name: fmt.Sprintf("a%d", i), Kind: value.KindString}
			tup[i] = value.String(s)
		}
		r := NewBag(schema.MustNew("bench", attrs))
		r.MustInsert(tup...)
		rows := r.Rows()
		buf := make([]byte, 0, 256)
		b.Run(bc.name+"/row", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = rows.AppendRowJSON(buf[:0], 0)
			}
		})
		b.Run(bc.name+"/tuple", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = AppendTupleJSON(buf[:0], tup)
			}
		})
	}
}
