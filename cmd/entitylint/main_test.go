package main

import "testing"

// TestRepoClean runs the whole suite over the module, test variants
// included, so tier-1 refuses what the suite refuses. The findings and
// type errors it fails on are printed above the failure.
func TestRepoClean(t *testing.T) {
	t.Chdir("../..")
	if code := run([]string{"./..."}, suite); code != 0 {
		t.Fatalf("entitylint exits %d (1: a package does not load or type-check; 2: findings)", code)
	}
}
