// Package experiments is a fixture: it links datagen, which only the
// daemon is refused.
package experiments

import "entityid/internal/datagen"

func Run() []string { return datagen.Employees(3) }
