// Hub: multi-source federation (§1's federated-database setting, taken
// past the paper's two-relation scope). Three restaurant guides — three
// autonomous publishers with three different candidate keys — are
// linked pairwise with the knowledge each pair supports: extended keys
// over (name, cuisine) where cuisine is recorded or ILFD-derivable, and
// a phone-trusting extended key between the two guides that both list
// phone numbers. The hub folds the pairwise matching tables into global
// entity clusters, checks the §3.2 uniqueness constraint transitively
// across sources, and serves a merged per-entity record.
//
// Run with: go run ./examples/hub
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"entityid"
)

func main() {
	if err := demo(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// ilfds is the Table 8 fragment this universe needs.
var ilfds = []string{
	"speciality=hunan -> cuisine=chinese",
	"speciality=mughalai -> cuisine=indian",
	"speciality=gyros -> cuisine=greek",
}

func source(name string, attrs []string, key ...string) (*entityid.Relation, error) {
	as := make([]entityid.Attribute, len(attrs))
	for i, a := range attrs {
		as[i] = entityid.Attribute{Name: a}
	}
	return entityid.NewRelation(name, as, key)
}

func demo(w io.Writer) error {
	h := entityid.NewHub()

	// Three publishers; no two share a candidate key (Example 1's
	// situation, now three ways).
	guides, err := source("guides", []string{"name", "street", "cuisine", "phone"}, "name", "street")
	if err != nil {
		return err
	}
	stars, err := source("stars", []string{"name", "city", "speciality", "phone"}, "name", "city")
	if err != nil {
		return err
	}
	eats, err := source("eats", []string{"name", "hood", "speciality", "phone"}, "name", "hood")
	if err != nil {
		return err
	}
	// The guides source is seeded before linking; the others stream in
	// afterwards — link-time batch identification and per-insert
	// incremental identification feed the same clusters.
	for _, row := range [][]string{
		{"villagewok", "wash ave", "chinese", "612-0001"},
		{"goldenleaf", "lake st", "chinese", "612-0002"},
		{"itsgreek", "univ ave", "greek", "612-0003"},
	} {
		if err := guides.InsertStrings(row...); err != nil {
			return err
		}
	}
	for _, s := range []struct {
		name string
		rel  *entityid.Relation
	}{{"guides", guides}, {"stars", stars}, {"eats", eats}} {
		if err := h.AddSource(s.name, s.rel); err != nil {
			return err
		}
	}

	// Pairwise knowledge. Every link carries only what its two sources
	// justify — per-pair autonomy, the hub's core premise: the guides
	// pairs extend {name, cuisine} with the speciality→cuisine ILFDs,
	// while stars↔eats trusts their shared phone listings.
	link := func(p *entityid.PairSpec, withILFDs bool) error {
		if withILFDs {
			for _, line := range ilfds {
				p.AddILFDText(line)
			}
		}
		return h.Link(p)
	}
	if err := link(entityid.NewPair("guides", "stars").
		MapAttr("name", "name", "name").
		MapAttr("street", "street", "").
		MapAttr("city", "", "city").
		MapAttr("cuisine", "cuisine", "").
		MapAttr("speciality", "", "speciality").
		MapAttr("phone", "phone", "phone").
		SetExtendedKey("name", "cuisine"), true); err != nil {
		return err
	}
	if err := link(entityid.NewPair("guides", "eats").
		MapAttr("name", "name", "name").
		MapAttr("street", "street", "").
		MapAttr("hood", "", "hood").
		MapAttr("cuisine", "cuisine", "").
		MapAttr("speciality", "", "speciality").
		MapAttr("phone", "phone", "phone").
		SetExtendedKey("name", "cuisine"), true); err != nil {
		return err
	}
	if err := link(entityid.NewPair("stars", "eats").
		MapAttr("name", "name", "name").
		MapAttr("city", "city", "").
		MapAttr("hood", "", "hood").
		MapAttr("speciality", "speciality", "speciality").
		MapAttr("phone", "phone", "phone").
		SetExtendedKey("phone"), false); err != nil {
		return err
	}

	// Stream the other two guides concurrently; the worker pool shards
	// the batch across the (mostly independent) pairwise states.
	s := func(v string) entityid.Value { return entityid.String(v) }
	batch := []entityid.HubInsert{
		{Source: "stars", Tuple: entityid.Tuple{s("villagewok"), s("minneapolis"), s("hunan"), s("612-0001")}},
		{Source: "stars", Tuple: entityid.Tuple{s("anjuman"), s("st paul"), s("mughalai"), s("612-0004")}},
		{Source: "eats", Tuple: entityid.Tuple{s("itsgreek"), s("dinkytown"), s("gyros"), s("612-9903")}},
		{Source: "eats", Tuple: entityid.Tuple{s("anjuman"), s("cathedral hill"), s("mughalai"), s("612-0004")}},
	}
	for i, res := range h.IngestBatch(batch) {
		if res.Err != nil {
			return fmt.Errorf("insert %d: %w", i, res.Err)
		}
	}

	st := h.Stats()
	fmt.Fprintf(w, "== hub: %d sources, %d links, %d tuples, %d pairwise matches, %d entities ==\n\n",
		st.Sources, st.Pairs, st.Tuples, st.Matches, st.Clusters)
	fmt.Fprintln(w, "global clusters (transitively closed over all links):")
	for _, cl := range h.Clusters() {
		var ms []string
		for _, m := range cl.Members {
			ms = append(ms, fmt.Sprintf("%s[%s]", m.Source, m.Tuple()[0]))
		}
		fmt.Fprintf(w, "  %-10s %s\n", cl.ID, strings.Join(ms, " ≡ "))
	}
	fmt.Fprintln(w)

	// villagewok's merged record coalesces the integrated attributes of
	// both publishers that know it — including the speciality only
	// stars records and the street only guides records.
	cl, err := h.Lookup("stars", s("villagewok"), s("minneapolis"))
	if err != nil {
		return err
	}
	merged, err := h.Merged(cl, entityid.MergeCoalesce)
	if err != nil {
		return err
	}
	var attrs []string
	for a := range merged.Values {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	fmt.Fprintf(w, "merged record for the villagewok cluster (%d sources):\n", len(cl.Members))
	for _, a := range attrs {
		fmt.Fprintf(w, "  %-11s %s\n", a, merged.Values[a])
	}
	fmt.Fprintln(w)

	// The transitive uniqueness guard: this eats listing reuses
	// villagewok's phone number. It matches guides[goldenleaf] via
	// (name, derived cuisine) on one link and stars[villagewok] via
	// phone on another — and stars[villagewok] is already identified
	// with guides[villagewok], so committing would merge two guides
	// rows into one entity. The hub refuses; nothing is committed
	// anywhere.
	_, err = h.Insert("eats", entityid.Tuple{s("goldenleaf"), s("uptown"), s("hunan"), s("612-0001")})
	if err == nil {
		return fmt.Errorf("expected a transitive uniqueness rejection")
	}
	fmt.Fprintf(w, "rejected (state rolled back): %v\n", err)
	if after := h.Stats(); after != st {
		return fmt.Errorf("rollback failed: %+v != %+v", after, st)
	}

	// With the phone corrected the listing is admitted and clusters
	// with goldenleaf alone — monotone growth resumes.
	rec, err := h.Insert("eats", entityid.Tuple{s("goldenleaf"), s("uptown"), s("hunan"), s("612-8802")})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "corrected listing clusters with %s[%s]\n\n",
		rec.Matched[0].Source, rec.Matched[0].Tuple()[0])

	// Durability: the same federation, written ahead to disk, surviving
	// a restart. The directory is single-writer (an flock guards it, so
	// a second live process cannot corrupt the log); after Close,
	// reopening replays the write-ahead log back to identical clusters.
	dir, err := os.MkdirTemp("", "entityid-hub-example")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Automatic snapshots are off so the restart below recovers from
	// the write-ahead log alone.
	d, err := entityid.OpenHub(dir, entityid.WithSnapshotEvery(0))
	if err != nil {
		return err
	}
	for _, src := range []struct {
		name  string
		attrs []string
		key   []string
	}{
		{"stars", []string{"name", "city", "speciality", "phone"}, []string{"name", "city"}},
		{"eats", []string{"name", "hood", "speciality", "phone"}, []string{"name", "hood"}},
	} {
		rel, err := source(src.name, src.attrs, src.key...)
		if err != nil {
			return err
		}
		if err := d.AddSource(src.name, rel); err != nil {
			return err
		}
	}
	if err := d.Link(entityid.NewPair("stars", "eats").
		MapAttr("name", "name", "name").
		MapAttr("city", "city", "").
		MapAttr("hood", "", "hood").
		MapAttr("speciality", "speciality", "speciality").
		MapAttr("phone", "phone", "phone").
		SetExtendedKey("phone")); err != nil {
		return err
	}
	for i, res := range d.IngestBatch(batch) {
		if res.Err != nil {
			return fmt.Errorf("durable insert %d: %w", i, res.Err)
		}
	}
	before := d.Stats()
	if err := d.Close(); err != nil {
		return err
	}
	recovered, err := entityid.OpenHub(dir)
	if err != nil {
		return err
	}
	defer recovered.Close()
	after := recovered.Stats()
	if after != before {
		return fmt.Errorf("recovery drifted: %+v != %+v", after, before)
	}
	fmt.Fprintf(w, "recovered across restart: %d tuples in %d clusters replayed from the write-ahead log\n",
		after.Tuples, after.Clusters)
	return nil
}
