package match

// Test files are never in scope.
var (
	seen    = map[Pair]bool{}
	joinKey = "a" + "\x1f" + "b"
)
