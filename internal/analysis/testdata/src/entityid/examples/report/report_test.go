package report

import (
	_ "entityid/internal/federate"
	_ "entityid/internal/integrate"
)
