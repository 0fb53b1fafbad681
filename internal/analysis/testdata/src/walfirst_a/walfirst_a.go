// Fixture for the walfirst analyzer: commit-path functions that do and
// do not log write-ahead before mutating published state.
package walfirst_a

import (
	"match"
	"relation"
	"sync/atomic"
)

type logger struct{ n int }

//entitylint:walappend
func (l *logger) appendRecord(b []byte) error {
	l.n += len(b)
	return nil
}

// pair is one link; only its published result is state.
type pair struct {
	//entitylint:published
	res *match.Result
	// spare is not published: an Append through it is not a logical
	// mutation.
	spare *match.Result
}

type Hub struct {
	per *logger
	//entitylint:published
	rel *relation.Relation
	//entitylint:published
	view atomic.Value
	// clock is deliberately NOT published: Store calls through it are
	// cache/bookkeeping, not logical mutations.
	clock atomic.Value
	//entitylint:published
	sources []int
	pairs   []*pair
}

//entitylint:publishes
func (h *Hub) publishView() {
	h.view.Store(len(h.sources))
}

//entitylint:commitpath
func (h *Hub) goodCommit(b []byte) error {
	if h.per != nil {
		if err := h.per.appendRecord(b); err != nil {
			return err
		}
	}
	h.sources = append(h.sources, len(b))
	h.view.Store(len(h.sources))
	h.publishView()
	return nil
}

//entitylint:commitpath
func (h *Hub) goodAdmitted(b []byte) error {
	adm := h.rel.Admit(len(b)) // a check: nothing is mutated before the append
	if h.per != nil {
		if err := h.per.appendRecord(b); err != nil {
			return err
		}
	}
	return h.rel.InsertAdmitted(adm)
}

//entitylint:commitpath
func (h *Hub) badAdmitted(b []byte) error {
	insErr := h.rel.InsertAdmitted(h.rel.Admit(len(b))) // want `call to InsertAdmitted through published field rel before the write-ahead append`
	if h.per != nil {
		if err := h.per.appendRecord(b); err != nil {
			return err
		}
	}
	return insErr
}

//entitylint:commitpath
func (h *Hub) badCommit(b []byte) error {
	h.sources = append(h.sources, len(b)) // want `assignment to published field sources before the write-ahead append`
	h.view.Store(len(h.sources))          // want `call to Store through published field view before the write-ahead append`
	h.clock.Store(1)                      // bookkeeping store: not flagged
	if h.per != nil {
		if err := h.per.appendRecord(b); err != nil {
			return err
		}
	}
	return nil
}

//entitylint:commitpath
func (h *Hub) badViaHelper(b []byte) error {
	h.publishView() // want `call to publishView, which mutates published state before the write-ahead append`
	if h.per != nil {
		if err := h.per.appendRecord(b); err != nil {
			return err
		}
	}
	return nil
}

// badConditionalAppend: the append is guarded by an arbitrary flag, not
// a persistence nil-guard, so it does not dominate the mutation.
//
//entitylint:commitpath
func (h *Hub) badConditionalAppend(b []byte, ok bool) {
	if ok {
		_ = h.per.appendRecord(b)
	}
	h.view.Store(1) // want `call to Store through published field view before the write-ahead append`
}

// badAfterErrorCheck: an error check that returns is a nil comparison
// too, but not a persistence guard — getting past it says nothing was
// logged.
//
//entitylint:commitpath
func (h *Hub) badAfterErrorCheck(b []byte, check func() error) error {
	if err := check(); err != nil {
		return err
	}
	h.view.Store(1) // want `call to Store through published field view before the write-ahead append`
	if h.per != nil {
		if err := h.per.appendRecord(b); err != nil {
			return err
		}
	}
	return nil
}

// goodBothBranches: both arms of the if append, so the mutation after
// the merge point is dominated.
//
//entitylint:commitpath
func (h *Hub) goodBothBranches(b []byte, ok bool) {
	if ok {
		_ = h.per.appendRecord(b)
	} else {
		_ = h.per.appendRecord(nil)
	}
	h.view.Store(1)
}

// unannotated functions may mutate freely (replay/restore paths).
func (h *Hub) restore(members []int) {
	h.sources = members
	h.view.Store(len(members))
}

// goodPairAppend: each pair's result is identified against before the
// append — a check, nothing is mutated — and grows after it, reached
// through a loop variable as the hub's commit path reaches it.
//
//entitylint:commitpath
func (h *Hub) goodPairAppend(b []byte) error {
	for _, p := range h.pairs {
		if _, err := p.res.Identify(len(b)); err != nil {
			return err
		}
		_ = p.spare.Append(nil) // not published: not flagged
	}
	if h.per != nil {
		if err := h.per.appendRecord(b); err != nil {
			return err
		}
	}
	for _, p := range h.pairs {
		if err := p.res.Append(nil); err != nil {
			return err
		}
	}
	return nil
}

//entitylint:commitpath
func (h *Hub) badPairAppend(b []byte) error {
	for i, p := range h.pairs {
		_ = p.res.Append(nil)          // want `call to Append through published field res before the write-ahead append`
		_ = h.pairs[i].res.Append(nil) // want `call to Append through published field res before the write-ahead append`
	}
	if h.per != nil {
		if err := h.per.appendRecord(b); err != nil {
			return err
		}
	}
	return nil
}
