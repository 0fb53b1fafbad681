package relation

// Test files are never in scope.
var (
	rows = []any{"a", 1}
	sep  = "\x1f"
)
