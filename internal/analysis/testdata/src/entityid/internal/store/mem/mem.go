// Package mem is a fixture: the node-keyed-map rule covers every
// package below internal/store.
package mem

import "entityid/internal/store"

var records map[store.Node][]store.Node // want `map\[entityid/internal/store\.Node\]\[\]entityid/internal/store\.Node: the hub folds`

// Silent: a node as a value.
var owner map[int]store.Node
