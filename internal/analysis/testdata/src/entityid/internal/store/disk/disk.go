// Package disk is a fixture: the disk tier frames nothing the log's
// way, so it is refused the log's codec.
package disk

import (
	"hash/crc32"

	"entityid/internal/wal" // want `import "entityid/internal/wal": the disk tier caches cluster records in its own record format .*\(PR 53\)`
)

var pairFile = wal.NewFrameCutter(nil)

// Silent: a cluster record carries a CRC of the tier's own.
var table = crc32.MakeTable(crc32.Castagnoli)
