// Package gen is the benchmark's own input generator. It imports only
// the standard library — in particular not entityid/internal/datagen —
// so that no change to the program can move the workload: the daemon
// sees nothing but the bytes rendered here.
//
// The generated situation is the paper's (§2.1, Example 1): autonomous
// sources with no common candidate key. A universe of restaurant
// entities is projected into four sources with schema
// (name, loc, cuisine|speciality, phone) and key (name, loc); loc is
// source-local, so two sources never share a key value for one entity.
// Even sources record cuisine, odd sources record speciality. Every
// pair of sources is linked with the extended key {name, cuisine},
// with cuisine derived through the speciality→cuisine ILFD family
// wherever a side lacks it (Table 8). Homonyms (distinct entities that
// share a name, forced onto different cuisines so the extended key
// stays a key of the integrated world) are what makes matching on name
// alone unsound.
package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
)

// The generator's fixed parameters. They are constants, not options:
// the benchmark has one input distribution.
const (
	NumSources   = 4
	Presence     = 0.6  // per-source probability that an entity is modelled
	HomonymRate  = 0.05 // entities that reuse the previous entity's name
	MissingPhone = 0.1
	DirtyPhone   = 0.1
)

var specialityCuisine = [][2]string{
	{"hunan", "chinese"}, {"sichuan", "chinese"}, {"dimsum", "chinese"},
	{"gyros", "greek"}, {"meze", "greek"},
	{"tandoori", "indian"}, {"dosa", "indian"}, {"biryani", "indian"},
	{"sushi", "japanese"}, {"ramen", "japanese"},
	{"tacos", "mexican"}, {"mole", "mexican"},
	{"bbq", "american"}, {"burgers", "american"},
	{"pho", "vietnamese"}, {"banhmi", "vietnamese"},
	{"injera", "ethiopian"}, {"tagine", "moroccan"},
}

var stems = []string{
	"villagewok", "twincities", "oldcountry", "expresscafe", "anjuman",
	"itsgreek", "lakeside", "northstar", "riverview", "unionhall",
	"goldenleaf", "bluedoor", "redpepper", "silverspoon", "greengarden",
	"harvest", "cornerhouse", "longfellow", "mainstreet", "thirdcoast",
}

// Attr is one attribute correspondence of a link.
type Attr struct {
	Name  string `json:"name"`
	Left  string `json:"left"`
	Right string `json:"right"`
}

// Link is the identification knowledge for one source pair, in the
// shape POST /v1/links takes.
type Link struct {
	Left   string   `json:"left"`
	Right  string   `json:"right"`
	Attrs  []Attr   `json:"attrs"`
	ExtKey []string `json:"extkey"`
	ILFDs  []string `json:"ilfds,omitempty"`
}

// SourceAttr is one declared attribute of a source.
type SourceAttr struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// Source is one source declaration, in the shape POST /v1/sources takes.
type Source struct {
	Name  string       `json:"name"`
	Attrs []SourceAttr `json:"attrs"`
	Key   []string     `json:"key"`
}

// Tuple is one generated tuple in arrival order.
type Tuple struct {
	Src     int       // source ordinal
	Vals    [4]string // name, loc, cuisine|speciality, phone
	NoPhone bool      // phone is NULL
	Entity  int       // ground-truth entity
}

// Workload is a generated integration problem: the schema and link
// declarations, the tuples in arrival order, and their rendering.
type Workload struct {
	Seed     int64
	Entities int
	Sources  []Source
	Links    []Link
	Tuples   []Tuple
	// Lines[i] is Tuples[i] as one NDJSON /v1/insert line, newline
	// included. "User bytes" are the bytes of these lines.
	Lines [][]byte
}

// SourceName names source ordinal k.
func SourceName(k int) string { return "src" + strconv.Itoa(k) }

// Generate builds the workload for a seed and a universe of E entities.
// The same (seed, E) always gives the same bytes.
func Generate(seed int64, E int) *Workload {
	rng := rand.New(rand.NewSource(seed))
	type entity struct{ name, speciality, cuisine, phone string }
	phone := func() string { return fmt.Sprintf("612-%03d-%04d", rng.Intn(1000), rng.Intn(10000)) }

	ents := make([]entity, E)
	used := make(map[string]bool, E) // name \x1f cuisine
	for i := range ents {
		sc := specialityCuisine[rng.Intn(len(specialityCuisine))]
		e := entity{speciality: sc[0], cuisine: sc[1], phone: phone()}
		if i > 0 && rng.Float64() < HomonymRate {
			e.name = ents[i-1].name
		} else {
			e.name = stems[rng.Intn(len(stems))] + "-" + strconv.Itoa(i)
		}
		// (name, cuisine) is every link's extended key and must identify
		// one entity; a homonym chain that runs out of cuisines gets a
		// fresh name.
		for tries := 0; used[e.name+"\x1f"+e.cuisine]; tries++ {
			if tries >= 4*len(specialityCuisine) {
				e.name = stems[rng.Intn(len(stems))] + "-" + strconv.Itoa(i) + "b"
				continue
			}
			sc = specialityCuisine[rng.Intn(len(specialityCuisine))]
			e.speciality, e.cuisine = sc[0], sc[1]
		}
		used[e.name+"\x1f"+e.cuisine] = true
		ents[i] = e
	}

	w := &Workload{Seed: seed, Entities: E}
	keys := make([]map[string]bool, NumSources)
	for k := range keys {
		keys[k] = map[string]bool{}
	}
	for id, e := range ents {
		for k := 0; k < NumSources; k++ {
			if rng.Float64() >= Presence {
				continue
			}
			newLoc := func() string {
				return strconv.Itoa(100+rng.Intn(9900)) + " " + stems[rng.Intn(len(stems))] + " st"
			}
			loc := newLoc()
			for keys[k][e.name+"\x1f"+loc] {
				loc = newLoc()
			}
			keys[k][e.name+"\x1f"+loc] = true
			t := Tuple{Src: k, Entity: id}
			t.Vals[0], t.Vals[1] = e.name, loc
			if k%2 == 0 {
				t.Vals[2] = e.cuisine
			} else {
				t.Vals[2] = e.speciality
			}
			switch {
			case rng.Float64() < MissingPhone:
				t.NoPhone = true
			case rng.Float64() < DirtyPhone:
				t.Vals[3] = phone()
			default:
				t.Vals[3] = e.phone
			}
			w.Tuples = append(w.Tuples, t)
		}
	}
	// Arrival order: tuples of all sources interleaved by the seed, the
	// incremental arrival a live integration sees.
	rng.Shuffle(len(w.Tuples), func(i, j int) { w.Tuples[i], w.Tuples[j] = w.Tuples[j], w.Tuples[i] })

	w.Lines = make([][]byte, len(w.Tuples))
	for i, t := range w.Tuples {
		w.Lines[i] = renderLine(t)
	}
	w.Sources = sources()
	w.Links = links()
	return w
}

// renderLine renders one tuple as an /v1/insert NDJSON line. Every
// generated value is plain ASCII without quotes or backslashes, so
// strconv.Quote is exactly JSON string encoding here.
func renderLine(t Tuple) []byte {
	b := make([]byte, 0, 96)
	b = append(b, `{"source":"`...)
	b = append(b, SourceName(t.Src)...)
	b = append(b, `","tuple":[`...)
	for i, v := range t.Vals {
		if i > 0 {
			b = append(b, ',')
		}
		if i == 3 && t.NoPhone {
			b = append(b, "null"...)
		} else {
			b = strconv.AppendQuote(b, v)
		}
	}
	return append(b, "]}\n"...)
}

func knows(k int) string {
	if k%2 == 0 {
		return "cuisine"
	}
	return "speciality"
}

func sources() []Source {
	out := make([]Source, NumSources)
	for k := range out {
		out[k] = Source{
			Name: SourceName(k),
			Attrs: []SourceAttr{
				{"name", "string"}, {"loc", "string"}, {knows(k), "string"}, {"phone", "string"},
			},
			Key: []string{"name", "loc"},
		}
	}
	return out
}

// links declares all six source pairs. loc is kept apart per source
// (it is source-local and means nothing across sources); cuisine and
// speciality map to whichever side records them; a pair with a
// speciality side carries the ILFD family that derives cuisine.
func links() []Link {
	var ilfds []string
	for _, sc := range specialityCuisine {
		ilfds = append(ilfds, "speciality="+sc[0]+" -> cuisine="+sc[1])
	}
	side := func(k int, attr string) string {
		if knows(k) == attr {
			return attr
		}
		return ""
	}
	var out []Link
	for i := 0; i < NumSources; i++ {
		for j := i + 1; j < NumSources; j++ {
			l := Link{
				Left: SourceName(i), Right: SourceName(j),
				ExtKey: []string{"name", "cuisine"},
				Attrs: []Attr{
					{"name", "name", "name"},
					{"loc_" + SourceName(i), "loc", ""},
					{"loc_" + SourceName(j), "", "loc"},
					{"phone", "phone", "phone"},
					{"cuisine", side(i, "cuisine"), side(j, "cuisine")},
				},
			}
			if i%2 == 1 || j%2 == 1 {
				l.Attrs = append(l.Attrs, Attr{"speciality", side(i, "speciality"), side(j, "speciality")})
				l.ILFDs = ilfds
			}
			out = append(out, l)
		}
	}
	return out
}

// UserBytes is the byte count of lines [from, to).
func (w *Workload) UserBytes(from, to int) int64 {
	var n int64
	for _, l := range w.Lines[from:to] {
		n += int64(len(l))
	}
	return n
}

// ReadPath is the request target of the point read of tuple i's key.
func (w *Workload) ReadPath(i int) string {
	t := w.Tuples[i]
	return "/v1/cluster?source=" + SourceName(t.Src) +
		"&key=" + url.QueryEscape(t.Vals[0]) + "&key=" + url.QueryEscape(t.Vals[1])
}

// TruthClusters is the number of ground-truth entities among the
// first n tuples: the cluster count a complete and sound integration
// of that prefix serves.
func (w *Workload) TruthClusters(n int) int {
	seen := make(map[int]bool, n)
	for _, t := range w.Tuples[:n] {
		seen[t.Entity] = true
	}
	return len(seen)
}

// Digest is the sha256 of everything the daemon is sent: the source
// and link declarations and every insert line, in order.
func (w *Workload) Digest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, s := range w.Sources {
		_ = enc.Encode(s) // a hash.Hash write cannot fail
	}
	for _, l := range w.Links {
		_ = enc.Encode(l)
	}
	for _, l := range w.Lines {
		h.Write(l)
	}
	return hex.EncodeToString(h.Sum(nil))
}
