package match_test

// The matching layer's benchmarks: the indexed engine against the
// Config.Naive reference on the canonical ~2k×2k scale workload
// (datagen.ScaleMatchConfig). differential_test.go pins that the two
// agree; these say what the index buys.
//
//	go test -run=NONE -bench=. -count=10 ./internal/match

import (
	"testing"
	"time"

	"entityid/internal/datagen"
	"entityid/internal/match"
	"entityid/internal/relation"
)

var scaleModes = []struct {
	name  string
	naive bool
}{{"engine", false}, {"naive", true}}

// BenchmarkScaleBuild is S6: full matching-table construction, blocked
// hash-join identity rules (engine) versus the nested-loop reference
// (naive). The verified leg is the engine's build and its §3.2 check
// (Verify): what a hub's Link, each pair of a recovery and every rebuild
// of the root facade's Federation pay.
func BenchmarkScaleBuild(b *testing.B) {
	for _, leg := range []struct {
		name          string
		naive, verify bool
	}{{"engine", false, false}, {"naive", true, false}, {"verified", false, true}} {
		b.Run(leg.name, func(b *testing.B) {
			cfg := datagen.ScaleMatchConfig()
			cfg.Naive = leg.naive
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := match.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.MT.Len() == 0 {
					b.Fatal("empty matching table")
				}
				if leg.verify {
					if err := res.Verify(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkScaleCounts is S7: the full |R|×|S| Figure 3 partition — one
// verdict row per R′ tuple, column masks OR'd word by word and counted
// by popcount in one goroutine (engine), versus the linear-scan,
// interpreted, cell-by-cell reference (naive). The first iteration also
// files every tuple into the cached sweep plan.
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

// BenchmarkIdentifyAppend is the hub's per-pair cost of one insert, the
// two halves timed apart: the identification — the lent relation's
// admission (shape and keys), the image's extension of the tuple (derive
// its R′ row) and Identify (probe the extended-key index and the
// identity-rule blocks, check uniqueness and consistency) — and Append
// (adopt into R′ and every index, grow the table). Between the two the
// admitted tuple goes into the lent relation, off both series, the way
// the hub's one canonical insert does. S is resident and R's tuples
// arrive one by one, so about half of them find a match; the pairing is
// rebuilt off the clock when R runs out. The metrics keep the names the
// series had before the guard moved into match, prepare-ns/op and
// commit-ns/op.
func BenchmarkIdentifyAppend(b *testing.B) {
	w := datagen.MustGenerate(datagen.Config{
		Entities: 400, OverlapFrac: 0.5, HomonymRate: 0.1, ILFDCoverage: 0.8, Seed: 505,
	})
	cfg := w.MatchConfig()
	arrivals := w.R.Tuples()
	fresh := func() *pairing {
		c := cfg
		c.R = relation.New(w.R.Schema())
		return newPairing(b, c)
	}
	p := fresh()
	var prepare, commit time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(arrivals)
		if k == 0 && i > 0 {
			b.StopTimer()
			p = fresh()
			b.StartTimer()
		}
		t0 := time.Now()
		a, err := p.extend(true, arrivals[k])
		if err != nil {
			b.Fatal(err)
		}
		pairs, err := p.res.Identify(true, &p.x, &p.sc)
		if err != nil {
			b.Fatal(err)
		}
		prepare += time.Since(t0)
		if err := p.cfg.R.InsertAdmitted(a); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if err := p.res.Append(true, &p.x, pairs, 0); err != nil {
			b.Fatal(err)
		}
		commit += time.Since(t1)
	}
	b.ReportMetric(float64(prepare.Nanoseconds())/float64(b.N), "prepare-ns/op")
	b.ReportMetric(float64(commit.Nanoseconds())/float64(b.N), "commit-ns/op")
}
