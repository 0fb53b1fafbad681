package federate

import (
	"testing"
	"time"

	"entityid/internal/datagen"
	"entityid/internal/relation"
)

// BenchmarkPrepareCommit is the hub's per-pair cost of one insert, the
// two halves timed apart: the prepare — the lent relation's admission
// (shape and keys) and PrepareAdmitted (derive the tuple's R′ image,
// probe the extended-key index and the identity-rule blocks, check
// uniqueness and consistency) — and Commit (append to R′ and every
// index). Between the two the admitted tuple goes into the lent
// relation, off both series, the way the hub's one canonical insert
// does. S is
// resident and R's tuples arrive one by one, so about half the prepares
// find a match; the federation is rebuilt off the clock when R runs
// out.
//
//	go test -run=NONE -bench=. -count=10 ./internal/federate
func BenchmarkPrepareCommit(b *testing.B) {
	w := datagen.MustGenerate(datagen.Config{
		Entities: 400, OverlapFrac: 0.5, HomonymRate: 0.1, ILFDCoverage: 0.8, Seed: 505,
	})
	cfg := w.MatchConfig()
	arrivals := w.R.Tuples()
	var lent *relation.Relation
	fresh := func() *Federation {
		c := cfg
		lent = relation.New(w.R.Schema())
		c.R = lent
		f, err := New(c)
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	f := fresh()
	var prepare, commit time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(arrivals)
		if k == 0 && i > 0 {
			b.StopTimer()
			f = fresh()
			b.StartTimer()
		}
		t0 := time.Now()
		a, err := lent.Admit(arrivals[k])
		if err != nil {
			b.Fatal(err)
		}
		p, err := f.PrepareAdmitted(true, a)
		if err != nil {
			b.Fatal(err)
		}
		prepare += time.Since(t0)
		if err := lent.InsertAdmitted(a); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := p.Commit(); err != nil {
			b.Fatal(err)
		}
		commit += time.Since(t1)
	}
	b.ReportMetric(float64(prepare.Nanoseconds())/float64(b.N), "prepare-ns/op")
	b.ReportMetric(float64(commit.Nanoseconds())/float64(b.N), "commit-ns/op")
}

// BenchmarkNew is what a Link, a pair's rebuild at recovery and every
// AddILFD rebuild pay: batch identification of two resident
// relations (the ~2k×2k scale workload, one blocked identity rule)
// into a verified federation ready to take inserts.
func BenchmarkNew(b *testing.B) {
	cfg := datagen.ScaleMatchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if f.MT().Len() == 0 {
			b.Fatal("empty matching table")
		}
	}
}
