// Images: §4.2's steps 1 and 2 — one relation extended by what the
// ILFDs derive for it — held once per source and knowledge, apart from
// the pairings that probe them.
//
// R′ as a pair sees it depends on the pair: its columns are the pair's
// attribute map, so a source's R′ carries a column per attribute only
// its partner models. What fills R′ does not: it is the source's tuples,
// renamed, and what the ILFDs that can fire on them derive. An ILFD can
// fire on a side only if every attribute of its antecedent is one the
// side models or one a firing ILFD derives (a NULL satisfies no
// condition); every other one is dead there, whatever the pair. So an
// Image is keyed by its knowledge — the rename map, the ILFDs live on the
// side, in order, the columns they fill that the source lacks, and the
// derive mode when any ILFD is live — and its rows hold the source's
// columns and those filled columns alone. Each pair reads it through a
// view (relation.NewView) laid out in its own R′ or S′ columns, NULL in
// the columns nothing fills. Two pairs of a source that agree on that
// knowledge read one image and share its probe indexes: one per
// projection (extended key, identity-rule blocks) some pairing joins on.
package match

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"entityid/internal/derive"
	"entityid/internal/ilfd"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// side is one side of a pair resolved: the relation, the extended schema
// the pair sees it under (R′ or S′), and the knowledge that fills it.
type side struct {
	rel  *relation.Relation
	sch  *schema.Schema
	know knowledge
}

// knowledge is what an image of a relation is made from, and all it is
// made from: two sides that agree on it extend every tuple alike.
type knowledge struct {
	rename map[string]string // source attribute → integrated name
	ilfds  ilfd.Set          // the ILFDs that can fire on the side, in order
	filled []schema.Attribute
	mode   derive.Mode // FirstMatch when no ILFD is live
}

// resolveSide resolves the left (R′) or right (S′) side of cfg, whose
// attribute map validate has checked. The extended schema keeps each
// renamed attribute in its column and appends the missing ones in
// attribute-map order, typed like the other side's column or, failing
// that, an ILFD consequent; it fails if renaming or appending makes two
// attributes collide.
func resolveSide(cfg Config, left bool) (side, error) {
	name, rel, other := "R'", cfg.R, cfg.S
	if !left {
		name, rel, other = "S'", cfg.S, cfg.R
	}
	src := rel.Schema()
	know := knowledge{rename: map[string]string{}, mode: cfg.DeriveMode}
	var extra []schema.Attribute
	for _, am := range cfg.Attrs {
		from, otherFrom := am.R, am.S
		if !left {
			from, otherFrom = am.S, am.R
		}
		if from != "" {
			if from != am.Name {
				know.rename[from] = am.Name
			}
			continue
		}
		kind := value.KindString
		if otherFrom != "" {
			kind = other.Schema().KindOf(otherFrom)
		} else if k, ok := consequentKind(cfg.ILFDs, am.Name); ok {
			kind = k
		}
		extra = append(extra, schema.Attribute{Name: am.Name, Kind: kind})
	}
	attrs, keys := renamed(src, know.rename)
	sch, err := schema.New(name, append(attrs, extra...), keys...)
	if err != nil {
		return side{}, fmt.Errorf("match: extend %s: %w", src.Name(), err)
	}
	if m := cfg.DeriveMode; m != derive.FirstMatch && m != derive.Fixpoint {
		return side{}, fmt.Errorf("match: extend: derive: unknown mode %v", m)
	}
	// The attributes a tuple of the side can hold a value in: its own, and
	// what an ILFD that can fire fills, to a fixpoint.
	holds := map[string]bool{}
	for _, a := range attrs {
		holds[a.Name] = true
	}
	live := make([]bool, len(cfg.ILFDs))
	for grew := true; grew; {
		grew = false
		for i, f := range cfg.ILFDs {
			if live[i] || slices.ContainsFunc(f.Antecedent, func(c ilfd.Condition) bool { return !holds[c.Attr] }) {
				continue
			}
			live[i], grew = true, true
			for _, c := range f.Consequent {
				holds[c.Attr] = holds[c.Attr] || sch.Has(c.Attr)
			}
		}
	}
	for i, f := range cfg.ILFDs {
		if live[i] {
			know.ilfds = append(know.ilfds, f)
		}
	}
	for _, a := range extra {
		if holds[a.Name] {
			know.filled = append(know.filled, a)
		}
	}
	sort.Slice(know.filled, func(a, b int) bool { return know.filled[a].Name < know.filled[b].Name })
	if len(know.ilfds) == 0 {
		know.mode = derive.FirstMatch
	}
	return side{rel: rel, sch: sch, know: know}, nil
}

// renamed returns src's attributes and candidate keys under rename.
func renamed(src *schema.Schema, rename map[string]string) ([]schema.Attribute, [][]string) {
	attrs, keys := src.Attrs(), src.Keys()
	for i := range attrs {
		if nn, ok := rename[attrs[i].Name]; ok {
			attrs[i].Name = nn
		}
	}
	for _, k := range keys {
		for i := range k {
			if nn, ok := rename[k[i]]; ok {
				k[i] = nn
			}
		}
	}
	return attrs, keys
}

// equal reports whether two sides' knowledge extends every tuple alike:
// the same renames, the same live ILFDs in the same order, condition by
// condition and value by value, bit for bit, the same filled columns,
// the same mode.
func (k *knowledge) equal(o *knowledge) bool {
	sameCond := func(a, b ilfd.Condition) bool { return a == b } // bit for bit: reflexive on a NaN
	sameRule := func(a, b ilfd.ILFD) bool {
		return slices.EqualFunc(a.Antecedent, b.Antecedent, sameCond) && slices.EqualFunc(a.Consequent, b.Consequent, sameCond)
	}
	if len(k.rename) != len(o.rename) || k.mode != o.mode ||
		!slices.Equal(k.filled, o.filled) || !slices.EqualFunc(k.ilfds, o.ilfds, sameRule) {
		return false
	}
	for from, to := range k.rename {
		if o.rename[from] != to {
			return false
		}
	}
	return true
}

// consequentKind infers an attribute's kind from ILFD consequents.
func consequentKind(fs ilfd.Set, attr string) (value.Kind, bool) {
	for _, f := range fs {
		for _, c := range f.Consequent {
			if c.Attr == attr {
				return c.Val.Kind(), true
			}
		}
	}
	return value.KindNull, false
}

// Image is one side's relation extended by one side's knowledge: an image
// relation (relation.NewImage) over the source whose row i is the
// source's tuple i renamed, plus the columns the live ILFDs fill and
// what they derived there, and the probe indexes the pairings over it
// join on. Build makes
// one per side; a coordinator whose pairs of a source agree on its
// knowledge makes one per source and knowledge and builds every such
// pair on it (BuildOn).
//
// An image grows by one arriving tuple at a time — Extend, then
// Result.Append once the source holds the tuple — under whatever serialises the
// source's inserts; BuildOn may run concurrently on images it shares
// with other builds (it reads them, and files a new index under mu).
type Image struct {
	know knowledge
	base *relation.Relation
	sch  *schema.Schema // the image's: base's columns renamed, then filled
	ext  *derive.Extender
	rel  *relation.Relation
	// mu guards ixs against builds adding or releasing indexes
	// concurrently.
	mu  sync.Mutex
	ixs []*imageIndex
}

// imageIndex is one probe index over an image: the rows filed under the
// hash of their projection onto cols (image columns), and how many
// pairings use it.
type imageIndex struct {
	cols  []int
	ix    *relation.PosIndex
	users int
}

// NewImage resolves the left (R′) or right (S′) side of cfg into an
// empty image of the side's relation; Grow extends the relation's tuples
// into it.
func NewImage(cfg Config, left bool) (*Image, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	sd, err := resolveSide(cfg, left)
	if err != nil {
		return nil, err
	}
	return newImage(sd)
}

func newImage(sd side) (*Image, error) {
	attrs, keys := renamed(sd.rel.Schema(), sd.know.rename)
	sch, err := schema.New(sd.sch.Name(), append(attrs, sd.know.filled...), keys...)
	if err != nil {
		return nil, fmt.Errorf("match: extend %s: %w", sd.rel.Schema().Name(), err)
	}
	rel, err := relation.NewImage(sch, sd.rel)
	if err != nil {
		return nil, fmt.Errorf("match: extend: %w", err)
	}
	im := &Image{know: sd.know, base: sd.rel, sch: sch, rel: rel}
	if len(sd.know.ilfds) > 0 {
		im.ext = derive.NewExtender(sd.know.ilfds, derive.Options{Mode: sd.know.mode})
	}
	return im, nil
}

// Same reports whether im and o are images of one relation under one
// knowledge: one serves every side the other does.
func (im *Image) Same(o *Image) bool { return im.base == o.base && im.know.equal(&o.know) }

// serves reports whether im is the image of sd's relation and knowledge.
func (im *Image) serves(sd *side) bool { return im.base == sd.rel && im.know.equal(&sd.know) }

// Relation returns the image relation: rows in the image's own columns.
func (im *Image) Relation() *relation.Relation { return im.rel }

// Indexes returns how many probe indexes the image keeps.
func (im *Image) Indexes() int {
	im.mu.Lock()
	defer im.mu.Unlock()
	return len(im.ixs)
}

// extend returns the image of one tuple the source holds or has admitted,
// over the scratch dst unless nothing derives — then t itself, which the
// caller must not write — and its conflicts, at tuple index 0.
func (im *Image) extend(dst, t relation.Tuple) (relation.Tuple, []derive.Conflict, error) {
	if im.ext == nil {
		return t, nil, nil
	}
	ext := append(dst[:0], t...)
	for n := im.sch.Arity(); len(ext) < n; {
		ext = append(ext, value.Null)
	}
	conflicts, err := im.ext.ExtendTuple(im.sch, ext)
	if err != nil {
		return nil, nil, err
	}
	return ext, conflicts, nil
}

// Grow extends into the image every tuple of its relation it does not
// hold yet, in order, filing each in the image's indexes, and returns
// the conflicts found, each at its tuple's position.
func (im *Image) Grow() ([]derive.Conflict, error) {
	var buf, src relation.Tuple
	var found []derive.Conflict
	for i, n := im.rel.Len(), im.base.Len(); i < n; i++ {
		src = im.base.TupleInto(src, i)
		row, cs, err := im.extend(buf, src)
		if err != nil {
			return nil, fmt.Errorf("match: extend: %w", err)
		}
		if im.ext != nil {
			buf = row
		}
		if err := im.rel.Adopt(row); err != nil {
			return nil, fmt.Errorf("match: extend: %w", err)
		}
		for _, ix := range im.ixs {
			k := projection(ix.ix, row, ix.cols)
			ix.ix.Add(k.h, k.joins)
		}
		for _, c := range cs {
			c.TupleIndex = i
			found = append(found, c)
		}
	}
	return found, nil
}

// Extended is one arriving tuple extended by an image and not adopted
// yet: its row in the image's columns and its projection under each of
// the image's indexes, taken once for every pairing that probes it. Its
// memory is reused by the next Extend given it: whoever extends owns one
// per image and tuple in flight.
type Extended struct {
	img *Image
	// row is buf, or — when nothing derives on the image — the admitted
	// tuple itself.
	row, buf relation.Tuple
	// keys[k] is row's projection under ixs[k], the image's indexes when
	// it was extended.
	ixs  []*imageIndex
	keys []projKey
	// at is the row the tuple takes: its admission's position, past the
	// image's rows by the tuples of its run ahead of it.
	at      int
	adopted bool
}

// Row returns the extended tuple, in the image's columns.
func (x *Extended) Row() relation.Tuple { return x.row }

// Extend extends a tuple the image's relation has admitted
// (relation.Admit, which checked its shape) into x, and returns the
// conflicts found (fixpoint mode), at tuple index 0. Nothing changes but
// x. The tuple is to take the row its admission names: a run's later
// tuple (relation.AdmitBehind) is identified and appended at its own
// row, past those of the run ahead of it. Each tuple in flight needs an
// Extended of its own.
func (im *Image) Extend(a relation.Admission, x *Extended) ([]derive.Conflict, error) {
	if !a.By(im.base) {
		return nil, fmt.Errorf("match: extend: the admission is not the image's relation's")
	}
	row, conflicts, err := im.extend(x.buf, a.Tuple())
	if err != nil {
		return nil, fmt.Errorf("match: extend: %w", err)
	}
	if im.ext != nil {
		x.buf = row
	}
	x.img, x.row, x.at, x.adopted = im, row, a.At(), false
	x.ixs, x.keys = append(x.ixs[:0], im.ixs...), x.keys[:0]
	for _, ix := range im.ixs {
		x.keys = append(x.keys, projection(ix.ix, row, ix.cols))
	}
	return conflicts, nil
}

// key returns x's projection under ix, one of x's image's indexes.
func (x *Extended) key(ix *imageIndex) projKey {
	if k := slices.Index(x.ixs, ix); k >= 0 {
		return x.keys[k]
	}
	return projection(ix.ix, x.row, ix.cols)
}

// adopt appends an extended tuple to the image once its relation holds
// the tuple, and behind it the later tuples of its run it took first:
// the image relation keeps what the row adds to the tuple, and every
// index files it. The first pairing to commit the tuple adopts it; the
// others find it adopted. It fails, with the image unchanged, when the
// image is not at the tuple's row or the relation is not exactly
// behind+1 tuples ahead of the image.
func (im *Image) adopt(x *Extended, behind int) error {
	switch {
	case x.img != im:
		return fmt.Errorf("match: adopt: the tuple was extended by another image")
	case x.adopted && im.rel.Len() == x.at+1:
		return nil
	case x.adopted || im.rel.Len() != x.at:
		return fmt.Errorf("match: adopt: stale extension: extended at row %d, the image holds %d", x.at, im.rel.Len())
	}
	if n := im.base.Len(); n != x.at+1+behind {
		return fmt.Errorf("match: adopt: lent relation holds %d tuples, the extended tuple and the %d behind it make it %d", n, behind, x.at+1+behind)
	}
	if err := im.rel.Adopt(x.row); err != nil {
		return err
	}
	for _, ix := range im.ixs {
		k := x.key(ix)
		ix.ix.Add(k.h, k.joins)
	}
	x.adopted = true
	return nil
}

// index returns the image's index over cols, filed with every row it
// holds, made if no pairing has made it; the caller is one more user.
func (im *Image) index(cols []int) *imageIndex {
	im.mu.Lock()
	defer im.mu.Unlock()
	for _, ix := range im.ixs {
		if slices.Equal(ix.cols, cols) {
			ix.users++
			return ix
		}
	}
	ix := &imageIndex{cols: cols, ix: relation.NewPosIndex(), users: 1}
	ix.ix.Reserve(im.rel.Len())
	var row relation.Tuple
	for i := range im.rel.Len() {
		row = im.rel.TupleInto(row, i)
		k := projection(ix.ix, row, cols)
		ix.ix.Add(k.h, k.joins)
	}
	im.ixs = append(im.ixs, ix)
	return ix
}

// release gives up one use of ix, dropping the index with its last user.
func (im *Image) release(ix *imageIndex) {
	im.mu.Lock()
	defer im.mu.Unlock()
	if ix.users--; ix.users > 0 {
		return
	}
	im.ixs = slices.DeleteFunc(im.ixs, func(x *imageIndex) bool { return x == ix })
}
