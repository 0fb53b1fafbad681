// Package report is a fixture: every package of the module is refused
// an import of internal/integrate and of internal/federate.
package report

import (
	"entityid/internal/federate"  // want `import "entityid/internal/federate": §3.2's insertion guard is one method beside Verify, .*\(PR 43\)`
	"entityid/internal/integrate" // want `import "entityid/internal/integrate": T_RS is laid out in one place, .*\(PR 40\)`
)

var (
	rows = integrate.Table()
	fed  = federate.New()
)
