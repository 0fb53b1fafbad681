// Package obs is a fixture: outside the tuple-codec and joined-key
// rules' scope, a metric family's children are a []any and label values
// join with \x1f.
package obs

import "strings"

func childKey(values []string) string { return strings.Join(values, "\x1f") }

func sortedChildren() []any { return nil }
