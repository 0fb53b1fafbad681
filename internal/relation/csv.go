package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"entityid/internal/schema"
	"entityid/internal/value"
)

// ReadCSV loads a relation from CSV. The first record must be a header of
// the form "attr" or "attr:kind" (kind one of string, int, float, bool;
// default string). Key columns are marked with a leading '*', e.g.
// "*name:string"; if no column is starred the whole attribute set is the
// key, per the paper's convention. Empty fields and the literal "null"
// load as NULL.
func ReadCSV(name string, r io.Reader) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("relation %s: read csv: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("relation %s: empty csv (no header)", name)
	}
	attrs := make([]schema.Attribute, 0, len(records[0]))
	var key []string
	for _, h := range records[0] {
		h = strings.TrimSpace(h)
		isKey := strings.HasPrefix(h, "*")
		h = strings.TrimPrefix(h, "*")
		attrName, kindName := h, "string"
		if i := strings.IndexByte(h, ':'); i >= 0 {
			attrName, kindName = h[:i], h[i+1:]
		}
		kind, err := parseKind(kindName)
		if err != nil {
			return nil, fmt.Errorf("relation %s: header %q: %w", name, h, err)
		}
		attrs = append(attrs, schema.Attribute{Name: attrName, Kind: kind})
		if isKey {
			key = append(key, attrName)
		}
	}
	var keys [][]string
	if len(key) > 0 {
		keys = [][]string{key}
	}
	sch, err := schema.New(name, attrs, keys...)
	if err != nil {
		return nil, err
	}
	rel := New(sch)
	for li, rec := range records[1:] {
		if err := rel.InsertStrings(rec...); err != nil {
			return nil, fmt.Errorf("relation %s: line %d: %w", name, li+2, err)
		}
	}
	return rel, nil
}

// WriteCSV writes the relation in the format ReadCSV accepts (kinds and
// key markers included in the header).
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	sch := r.schema
	keySet := map[string]bool{}
	for _, a := range sch.PrimaryKey() {
		keySet[a] = true
	}
	header := make([]string, sch.Arity())
	for i := 0; i < sch.Arity(); i++ {
		a := sch.Attr(i)
		h := fmt.Sprintf("%s:%s", a.Name, a.Kind)
		if keySet[a.Name] {
			h = "*" + h
		}
		header[i] = h
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, sch.Arity())
	for _, t := range r.Tuples() {
		for i, v := range t {
			if v.IsNull() {
				rec[i] = "null"
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// kindAliases are the header spellings ReadCSV accepts beyond the kind
// names themselves, after trimming and lower-casing.
var kindAliases = map[string]string{
	"": "string", "str": "string", "integer": "int", "double": "float", "boolean": "bool",
}

func parseKind(s string) (value.Kind, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if full, ok := kindAliases[name]; ok {
		name = full
	}
	if k, err := value.ParseKind(name); err == nil {
		return k, nil
	}
	return value.KindNull, fmt.Errorf("unknown kind %q", s)
}
