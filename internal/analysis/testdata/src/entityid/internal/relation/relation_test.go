package relation

import "unsafe"

// Test files are never in scope: a test may pin a size through unsafe.
var (
	rows = []any{"a", 1}
	sep  = "\x1f"
	size = unsafe.Sizeof(sep)
)
