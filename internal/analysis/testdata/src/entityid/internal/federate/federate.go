// Package federate is a fixture stand-in for the deleted second object
// per pair, which held §3.2's insertion guard beside match's.
package federate

func New() int { return 0 }
