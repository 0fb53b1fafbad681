package gen

import (
	"bytes"
	"encoding/json"
	"testing"

	"entityid/bench/plan"
)

// TestPinned pins what the daemon is sent. Every number the benchmark
// reports is a number about these bytes; if the generator drifts, the
// numbers stop being comparable, and this test says so first.
func TestPinned(t *testing.T) {
	pins := []struct {
		seed     int64
		entities int
		digest   string
		tuples   int
		clusters int // ground-truth entities present in at least one source
	}{
		// One row per (seed, workload universe at the nominal run length).
		{1, 27000, "5052af00a60dbb8d7b3073e058e3fdf4501dd2b03405196e17df3d263df8f2a6", 64962, 26302},
		{2, 27000, "99eb34513d455777e0499ae6a8b1dec55d5f73725cd43aeb5094195cfa3b223f", 64848, 26315},
		{1, 22000, "c472a271e2185aae2bc410e7530b8a6ead394baf70250e63085e6787d385d19d", 53156, 21463},
		{2, 22000, "f4126e26954369c4df9a1f178020fe74ed18ca86202ee4431b0e9ddfc6e8a160", 52815, 21424},
	}
	sizes := map[int]bool{}
	for _, wl := range plan.Workloads {
		e, _ := wl.Size(plan.NominalSeconds)
		sizes[e] = true
	}
	for _, p := range pins {
		if !sizes[p.entities] {
			t.Errorf("pin for E=%d, which no workload uses: the plan changed, re-pin", p.entities)
		}
		w := Generate(p.seed, p.entities)
		if got := w.Digest(); got != p.digest {
			t.Errorf("seed %d E=%d: digest %s, pinned %s", p.seed, p.entities, got, p.digest)
		}
		if got := len(w.Tuples); got != p.tuples {
			t.Errorf("seed %d E=%d: %d tuples, pinned %d", p.seed, p.entities, got, p.tuples)
		}
		if got := w.TruthClusters(len(w.Tuples)); got != p.clusters {
			t.Errorf("seed %d E=%d: %d ground-truth clusters, pinned %d", p.seed, p.entities, got, p.clusters)
		}
	}
	for e := range sizes {
		found := false
		for _, p := range pins {
			found = found || p.entities == e
		}
		if !found {
			t.Errorf("no pin for E=%d, which a workload uses", e)
		}
	}
}

// TestShape checks the properties the workloads rely on: no operation
// can fail, and the situation is the paper's.
func TestShape(t *testing.T) {
	w := Generate(3, 2000)
	if len(w.Sources) != NumSources || len(w.Links) != NumSources*(NumSources-1)/2 {
		t.Fatalf("%d sources, %d links", len(w.Sources), len(w.Links))
	}
	keys := map[string]bool{}        // a source's key (name, loc) is unique
	extKey := map[string]int{}       // (name, cuisine) identifies one entity
	perEntity := map[[2]int]bool{}   // an entity appears at most once per source
	cuisineOf := map[string]string{} // the ILFD family is a function
	for _, sc := range specialityCuisine {
		cuisineOf[sc[0]] = sc[1]
	}
	homonyms := map[string]map[int]bool{}
	for i, tu := range w.Tuples {
		k := SourceName(tu.Src) + "|" + tu.Vals[0] + "|" + tu.Vals[1]
		if keys[k] {
			t.Fatalf("duplicate key %s", k)
		}
		keys[k] = true
		if perEntity[[2]int{tu.Src, tu.Entity}] {
			t.Fatalf("entity %d twice in source %d", tu.Entity, tu.Src)
		}
		perEntity[[2]int{tu.Src, tu.Entity}] = true
		cuisine := tu.Vals[2]
		if tu.Src%2 == 1 {
			cuisine = cuisineOf[tu.Vals[2]]
			if cuisine == "" {
				t.Fatalf("speciality %q has no ILFD", tu.Vals[2])
			}
		}
		ek := tu.Vals[0] + "|" + cuisine
		if e, ok := extKey[ek]; ok && e != tu.Entity {
			t.Fatalf("extended key %s names entities %d and %d", ek, e, tu.Entity)
		}
		extKey[ek] = tu.Entity
		if homonyms[tu.Vals[0]] == nil {
			homonyms[tu.Vals[0]] = map[int]bool{}
		}
		homonyms[tu.Vals[0]][tu.Entity] = true

		var line struct {
			Source string    `json:"source"`
			Tuple  []*string `json:"tuple"`
		}
		if err := json.Unmarshal(w.Lines[i], &line); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if line.Source != SourceName(tu.Src) || len(line.Tuple) != 4 || *line.Tuple[0] != tu.Vals[0] ||
			*line.Tuple[1] != tu.Vals[1] || (line.Tuple[3] == nil) != tu.NoPhone {
			t.Fatalf("line %d does not render its tuple: %s", i, w.Lines[i])
		}
		if !bytes.HasSuffix(w.Lines[i], []byte("\n")) {
			t.Fatalf("line %d has no newline", i)
		}
	}
	shared := 0
	for _, ents := range homonyms {
		if len(ents) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no homonyms: matching on name alone would be sound, which is not the paper's situation")
	}
	if a, b := Generate(3, 2000).Digest(), w.Digest(); a != b {
		t.Error("the same seed gave different bytes")
	}
	if a, b := Generate(4, 2000).Digest(), w.Digest(); a == b {
		t.Error("different seeds gave the same bytes")
	}
}
