// Package datagen is a fixture stand-in for the synthetic-workload
// generator the daemon must not link.
package datagen

func Employees(n int) []string { return nil }
