// Package hub is a fixture stand-in for the repo's hub: the commit
// path, recovery's files and the snapshot's files, each under the name
// a rule scopes by.
package hub

import (
	"entityid/internal/match"
	"entityid/internal/store"
)

type node = store.Node

type Hub struct {
	backend store.Backend
	pending pending
}

type pending struct{}

// Pairs is not the pair tier's.
func (pending) Pairs() []match.Pair { return nil }

func (h *Hub) Insert(t int) error                     { return h.insertTraced(t) }
func (h *Hub) insertTraced(t int) error               { return nil }
func (h *Hub) Link(spec int) error                    { return nil }
func (h *Hub) AddSource(name string, rel []int) error { return nil }

var clusterOf map[node]int // want `map\[entityid/internal/store\.Node\]int: the hub folds`

var pairSet map[match.Pair]bool // want `map\[entityid/internal/match\.Pair\]bool: a matching table`

func (h *Hub) tier() {
	_ = h.backend.Pairs()         // want `call to \(entityid/internal/store\.Backend\)\.Pairs: a pair's federation is resident .*\(PR 35\)`
	_ = h.backend.Pairs().Save(1) // want `call to \(entityid/internal/store\.Pairs\)\.Save` `call to \(entityid/internal/store\.Backend\)\.Pairs`
	_ = h.pending.Pairs()
	// Outside recovery's files the commit path is the commit path.
	_ = h.Insert(1)
}
