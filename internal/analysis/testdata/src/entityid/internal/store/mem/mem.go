// Package mem is a fixture: the node-keyed-map rule covers every
// package below internal/store, and the enumeration's per-node reads are
// retired there.
package mem

import "entityid/internal/store"

var records map[store.Node][]store.Node // want `map\[entityid/internal/store\.Node\]\[\]entityid/internal/store\.Node: the hub folds`

// Silent: a node as a value.
var owner map[int]store.Node

type clusters struct{}

func (c *clusters) Glance(n store.Node) (store.Node, bool) { return n, false } // want `func Glance: a walk reads the cluster store a window at a time`

func (c *clusters) Peek(n store.Node) ([]store.Node, error) { return nil, nil } // want `func Peek: a walk reads the cluster store a window at a time`

// Silent: the walk's read is one window of nodes.
func (c *clusters) Window(src, lo, hi int) error { return nil }
