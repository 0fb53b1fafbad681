package report

import _ "entityid/internal/integrate"
