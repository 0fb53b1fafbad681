package entityid_test

import (
	"strings"
	"testing"

	"entityid"
	"entityid/internal/rules"
)

func hubSource(t *testing.T, h *entityid.Hub, name string, attrs []string, key ...string) {
	t.Helper()
	as := make([]entityid.Attribute, len(attrs))
	for i, a := range attrs {
		as[i] = entityid.Attribute{Name: a}
	}
	rel, err := entityid.NewRelation(name, as, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddSource(name, rel); err != nil {
		t.Fatal(err)
	}
}

func TestHubPublicSurface(t *testing.T) {
	h := entityid.NewHub()
	hubSource(t, h, "r", []string{"name", "street", "cuisine", "phone"}, "name", "street")
	hubSource(t, h, "s", []string{"name", "city", "speciality", "phone"}, "name", "city")
	hubSource(t, h, "u", []string{"name", "hood", "speciality", "phone"}, "name", "hood")

	pair := func(left, right, rLoc, sLoc string) *entityid.PairSpec {
		return entityid.NewPair(left, right).
			MapAttr("name", "name", "name").
			MapAttr("loc_"+left, rLoc, "").
			MapAttr("loc_"+right, "", sLoc).
			MapAttr("phone", "phone", "phone")
	}
	if err := h.Link(pair("r", "s", "street", "city").
		MapAttr("cuisine", "cuisine", "").
		MapAttr("speciality", "", "speciality").
		SetExtendedKey("name", "cuisine").
		AddILFDText("speciality=hunan -> cuisine=chinese")); err != nil {
		t.Fatal(err)
	}
	// Identity rule through the public surface: s↔u agree on name+phone.
	namePhone, err := rules.NewIdentity("name-phone", []rules.Predicate{
		{Left: rules.Attr1("name"), Op: rules.Eq, Right: rules.Attr2("name")},
		{Left: rules.Attr1("phone"), Op: rules.Eq, Right: rules.Attr2("phone")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Link(pair("s", "u", "city", "hood").
		MapAttr("speciality", "speciality", "speciality").
		SetExtendedKey("name", "speciality").
		AddIdentityRule(namePhone)); err != nil {
		t.Fatal(err)
	}

	str := func(vals ...string) entityid.Tuple {
		out := make(entityid.Tuple, len(vals))
		for i, v := range vals {
			out[i] = entityid.String(v)
		}
		return out
	}
	results := h.IngestBatch([]entityid.HubInsert{
		{Source: "r", Tuple: str("villagewok", "wash ave", "chinese", "612-1")},
		{Source: "s", Tuple: str("villagewok", "mpls", "hunan", "612-1")},
		// Matches s's row only via the name-phone identity rule (the
		// speciality differs, so the extended key cannot join them).
		{Source: "u", Tuple: str("villagewok", "west bank", "sichuan", "612-1")},
	})
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("insert %d: %v", i, res.Err)
		}
	}
	cl, err := h.Lookup("r", entityid.String("villagewok"), entityid.String("wash ave"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Members) != 3 {
		t.Fatalf("cluster size %d, want 3 (identity rule must fire on streaming insert)", len(cl.Members))
	}
	merged, err := h.Merged(cl, entityid.MergeCoalesce)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Values["cuisine"].String(); got != "chinese" {
		t.Fatalf("merged cuisine %q", got)
	}
	// speciality disagrees between s (hunan) and u (sichuan): coalesce
	// keeps the first and reports the conflict.
	if len(merged.Conflicts) != 1 || merged.Conflicts[0] != "speciality" {
		t.Fatalf("conflicts %v, want [speciality]", merged.Conflicts)
	}
	if st := h.Stats(); st.Clusters != 1 || st.Tuples != 3 || st.Matches != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHubLinkReportsDeferredILFDParseError(t *testing.T) {
	h := entityid.NewHub()
	hubSource(t, h, "a", []string{"name"}, "name")
	hubSource(t, h, "b", []string{"name"}, "name")
	err := h.Link(entityid.NewPair("a", "b").
		MapAttr("name", "name", "name").
		SetExtendedKey("name").
		AddILFDText("not an ilfd"))
	if err == nil || !strings.Contains(err.Error(), "ilfd") {
		t.Fatalf("parse error not surfaced: %v", err)
	}
}

// TestHubDurability drives the public durable surface: OpenHub, a
// crash (abandon without Close), recovery with identical clusters, a
// forced Checkpoint, and a clean Close/reopen cycle.
func TestHubDurability(t *testing.T) {
	dir := t.TempDir()
	// Automatic snapshots are disabled so the mid-test "crash" (an
	// abandoned hub sharing the process) cannot race the reopen; the
	// internal crash harness covers background snapshotting, and
	// Checkpoint is exercised explicitly below.
	build := func() *entityid.Hub {
		h, err := entityid.OpenHub(dir, entityid.WithSnapshotEvery(0))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := build()
	hubSource(t, h, "r", []string{"name", "street", "cuisine", "phone"}, "name", "street")
	hubSource(t, h, "s", []string{"name", "city", "speciality", "phone"}, "name", "city")
	if err := h.Link(entityid.NewPair("r", "s").
		MapAttr("name", "name", "name").
		MapAttr("street", "street", "").
		MapAttr("city", "", "city").
		MapAttr("cuisine", "cuisine", "").
		MapAttr("speciality", "", "speciality").
		MapAttr("phone", "phone", "phone").
		SetExtendedKey("name", "cuisine").
		AddILFDText("speciality=hunan -> cuisine=chinese")); err != nil {
		t.Fatal(err)
	}
	str := func(vals ...string) entityid.Tuple {
		out := make(entityid.Tuple, len(vals))
		for i, v := range vals {
			out[i] = entityid.String(v)
		}
		return out
	}
	for _, in := range []entityid.HubInsert{
		{Source: "r", Tuple: str("villagewok", "wash ave", "chinese", "612-1")},
		{Source: "s", Tuple: str("villagewok", "mpls", "hunan", "612-1")},
		{Source: "r", Tuple: str("goldenleaf", "lake st", "chinese", "612-2")},
		{Source: "s", Tuple: str("anjuman", "st paul", "mughalai", "612-3")},
	} {
		if _, err := h.Insert(in.Source, in.Tuple); err != nil {
			t.Fatal(err)
		}
	}
	want := h.Clusters()
	// Restart: the durable directory is single-writer (flock), so the
	// public surface hands over with Close; hard-crash handover is
	// covered by the internal recovery harness.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2 := build()
	if got := h2.Clusters(); len(got) != len(want) {
		t.Fatalf("recovered %d clusters, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i].ID != want[i].ID || len(got[i].Members) != len(want[i].Members) {
				t.Fatalf("recovered cluster %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
	if names := h2.SourceNames(); len(names) != 2 || names[0] != "r" || names[1] != "s" {
		t.Fatalf("recovered sources %v", names)
	}
	if sch, err := h2.SourceSchema("s"); err != nil || sch.Arity() != 4 {
		t.Fatalf("recovered schema: %v %v", sch, err)
	}
	if err := h2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}
	h3 := build()
	defer h3.Close()
	if st := h3.Stats(); st.Tuples != 4 || st.Clusters != 3 || st.Matches != 1 {
		t.Fatalf("stats after checkpointed reopen: %+v", st)
	}
	// A memory-only hub rejects Checkpoint but tolerates Close.
	m := entityid.NewHub()
	if err := m.Checkpoint(); err == nil {
		t.Fatal("memory-only checkpoint succeeded")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHubSyncEveryOption exercises the public group-commit knob: a hub
// opened WithSyncEvery keeps working across restart, and IngestBatch
// lands a whole batch durably.
func TestHubSyncEveryOption(t *testing.T) {
	dir := t.TempDir()
	h, err := entityid.OpenHub(dir, entityid.WithSnapshotEvery(0), entityid.WithSyncEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	hubSource(t, h, "r", []string{"name", "street"}, "name")
	hubSource(t, h, "s", []string{"name", "city"}, "name")
	if err := h.Link(entityid.NewPair("r", "s").
		MapAttr("name", "name", "name").
		MapAttr("street", "street", "").
		MapAttr("city", "", "city").
		SetExtendedKey("name")); err != nil {
		t.Fatal(err)
	}
	items := []entityid.HubInsert{
		{Source: "r", Tuple: entityid.Tuple{entityid.String("a"), entityid.String("s1")}},
		{Source: "r", Tuple: entityid.Tuple{entityid.String("b"), entityid.String("s2")}},
		{Source: "s", Tuple: entityid.Tuple{entityid.String("c"), entityid.String("mpls")}},
	}
	for _, res := range h.IngestBatch(items) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := entityid.OpenHub(dir, entityid.WithSnapshotEvery(0), entityid.WithSyncEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if st := h2.Stats(); st.Tuples != 3 {
		t.Fatalf("recovered %d tuples, want 3", st.Tuples)
	}
}

// TestHubAddSourceClonesItsSeed: the relation handed to AddSource seeds
// the hub and stays the caller's. Neither side's later inserts reach the
// other — on a memory-only hub and on a durable one, where the seed is
// also what the log recorded.
func TestHubAddSourceClonesItsSeed(t *testing.T) {
	durable, err := entityid.OpenHub(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for name, h := range map[string]*entityid.Hub{"memory": entityid.NewHub(), "durable": durable} {
		rel, err := entityid.NewRelation("r", []entityid.Attribute{{Name: "id"}, {Name: "name"}}, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.InsertStrings("1", "wok"); err != nil {
			t.Fatal(err)
		}
		if err := h.AddSource("r", rel); err != nil {
			t.Fatal(err)
		}
		if err := rel.InsertStrings("2", "the caller's own"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Insert("r", entityid.Tuple{entityid.String("3"), entityid.String("the hub's own")}); err != nil {
			t.Fatal(err)
		}
		if st := h.Stats(); st.Tuples != 2 {
			t.Errorf("%s hub: %d tuples after one seed tuple and one insert (the caller's later insert leaked in?)", name, st.Tuples)
		}
		if _, err := h.Lookup("r", entityid.String("2")); err == nil {
			t.Errorf("%s hub: serves a tuple inserted into the caller's relation after AddSource", name)
		}
		if rel.Len() != 2 {
			t.Errorf("%s hub: the caller's relation holds %d tuples, want its own 2 (a hub insert leaked out?)", name, rel.Len())
		}
	}
}
