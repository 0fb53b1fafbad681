// Package integrate is a fixture stand-in for the deleted second
// reading of T_RS.
package integrate

func Table() [][]string { return nil }
