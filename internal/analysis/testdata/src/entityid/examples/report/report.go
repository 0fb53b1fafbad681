// Package report is a fixture: every package of the module is refused
// an import of internal/integrate.
package report

import "entityid/internal/integrate" // want `import "entityid/internal/integrate": T_RS is laid out in one place, .*\(PR 40\)`

var rows = integrate.Table()
