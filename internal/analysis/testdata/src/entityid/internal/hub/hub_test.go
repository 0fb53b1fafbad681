package hub

import (
	"testing"

	"entityid/internal/match"
)

// Test files are never in scope: a node-keyed map, a pair set and the
// pair tier are a test's to use.
func TestFixture(t *testing.T) {
	var h Hub
	seen := map[node]bool{}
	pairs := map[match.Pair]int{}
	_, _, _ = h.backend.Pairs(), seen, pairs
}
