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
