// Package relation is a fixture stand-in for the repo's relation
// package: the canonical relation the commit path admits a tuple into
// before the write-ahead append and files it in, by InsertAdmitted, after.
package relation

type Relation struct{ n int }

type Admission struct{ at int }

func (r *Relation) Admit(t int) Admission { return Admission{r.n + t} }

func (r *Relation) InsertAdmitted(a Admission) error {
	r.n = a.at
	return nil
}
