// Package store is a fixture stand-in for the repo's storage contract:
// Node is the type the node-keyed-map rule names, and Backend and Pairs
// are the pair tier the hub must not call.
package store

type Node struct{ Src, Idx int32 }

type Pairs interface {
	Save(id int) error
	Load(id int) error
}

type Backend interface {
	Pairs() Pairs
}

var byNode map[Node]int // want `map\[entityid/internal/store\.Node\]int: the hub folds clusters`

// Silent: a store finds a node's record by position.
var index [][]int32
