package hub

import (
	_ "entityid/internal/match" // want `import "entityid/internal/match": a snapshot stores the sources .*\(PR 37\)`
)

// A run chunk once carried the table under "mt"; this comment may say so.
const pairField = `,"mt":` // want `literal .* holds "\\"mt\\"": a snapshot stores`

type chunk struct {
	Name string `json:"name"`
}
