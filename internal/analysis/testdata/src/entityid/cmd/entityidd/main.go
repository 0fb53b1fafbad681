// Command entityidd is a fixture: it links the data generator through
// another package, which go list -deps sees and a grep of its own
// imports does not.
package main

import (
	"strings"

	"entityid/internal/experiments" // want `links entityid/internal/experiments → entityid/internal/datagen: the daemon does not link .*\(PR 16\)`
)

func main() { _ = strings.Join(experiments.Run(), "") }
