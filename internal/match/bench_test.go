package match_test

// The matching layer's benchmarks: the indexed engine against the
// Config.Naive reference on the canonical ~2k×2k scale workload
// (datagen.ScaleMatchConfig). differential_test.go pins that the two
// agree; these say what the index buys.
//
//	go test -run=NONE -bench=. -count=10 ./internal/match

import (
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/match"
)

var scaleModes = []struct {
	name  string
	naive bool
}{{"engine", false}, {"naive", true}}

// BenchmarkScaleBuild is S6: full matching-table construction, blocked
// hash-join identity rules (engine) versus the nested-loop reference
// (naive).
func BenchmarkScaleBuild(b *testing.B) {
	for _, mode := range scaleModes {
		b.Run(mode.name, func(b *testing.B) {
			cfg := datagen.ScaleMatchConfig()
			cfg.Naive = mode.naive
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := match.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.MT.Len() == 0 {
					b.Fatal("empty matching table")
				}
			}
		})
	}
}

// BenchmarkScaleCounts is S7: the full |R|×|S| Figure 3 partition — the
// pair-indexed, compiled-rule, parallel sweep (engine) versus the
// linear-scan, interpreted, sequential reference (naive).
func BenchmarkScaleCounts(b *testing.B) {
	for _, mode := range scaleModes {
		b.Run(mode.name, func(b *testing.B) {
			cfg := datagen.ScaleMatchConfig()
			cfg.Naive = mode.naive
			res, err := match.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, _, u := res.Counts()
				if m == 0 || u == 0 {
					b.Fatal("degenerate partition")
				}
			}
		})
	}
}
