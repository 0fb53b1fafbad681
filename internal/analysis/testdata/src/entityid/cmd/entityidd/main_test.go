package main

import (
	"testing"

	"entityid/internal/datagen"
)

// A test of the daemon may build its workload from the generator.
func TestFixture(t *testing.T) { _ = datagen.Employees(1) }
