// The one renderer of every line the daemon answers with past its
// control plane: insert acks and refused insert lines, GET /v1/cluster,
// and each /v1/clusters line with the next_cursor or terminal line that
// ends a stream, are appended into a caller-owned []byte, with no
// intermediate map and no reflection. A member's tuple is the tuple
// codec's bytes, rendered from the cells it lies in
// (relation.Rows.AppendRowJSON — what the log and the snapshots hold
// too); this file is the objects around them. The output
// is byte for byte what encoding/json writes for the sorted-key map form
// of the same line (kept in render_test.go as the reference the property
// test and FuzzClusterJSON hold this file and the codec's appenders
// against) — string escaping and float form included.
package main

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"

	"entityid"
	"entityid/internal/value"
)

// srcJSON is a source name and the JSON string it renders as.
type srcJSON struct {
	name string
	json []byte
}

// maxSrcJSON bounds the source names a server keeps rendered: a hub's
// sources with room to spare. A name past it is escaped each time.
const maxSrcJSON = 64

// appendSource appends a member's source name as a JSON string, copying
// the bytes the server escaped the first time it rendered that name. The
// list only grows, copy-on-write, so readers need no lock; two renders
// racing to add one name may escape it once more.
func (s *server) appendSource(b []byte, name string) []byte {
	known := s.srcNames.Load()
	if known != nil {
		for _, e := range *known {
			if e.name == name {
				return append(b, e.json...)
			}
		}
	}
	start := len(b)
	b = value.AppendJSONString(b, name)
	if known == nil || len(*known) < maxSrcJSON {
		var grown []srcJSON
		if known != nil {
			grown = slices.Clip(*known)
		}
		grown = append(grown, srcJSON{name: name, json: bytes.Clone(b[start:])})
		s.srcNames.CompareAndSwap(known, &grown)
	}
	return b
}

// appendMembers renders a member list as an array of
// {"index":…,"source":…,"tuple":[…]} objects.
func (s *server) appendMembers(b []byte, ms []entityid.ClusterMember) []byte {
	b = append(b, '[')
	for i, m := range ms {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"index":`...)
		b = strconv.AppendInt(b, int64(m.Index), 10)
		b = append(b, `,"source":`...)
		b = s.appendSource(b, m.Source)
		b = append(b, `,"tuple":`...)
		rows, row := m.Row()
		b = rows.AppendRowJSON(b, row)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendCluster renders a cluster, optionally with its merged record:
// {"conflicts":[…],"id":…,"members":[…],"merge_error":…,"merged":{…}},
// keys in that (sorted) order, the merge keys present only when asked
// for and applicable.
func (s *server) appendCluster(b []byte, cl entityid.EntityCluster, merge string) []byte {
	var me *entityid.MergedEntity
	mergeErr := ""
	if merge != "" {
		if strategy, ok := mergeStrategies[merge]; !ok {
			mergeErr = fmt.Sprintf("unknown strategy %q", merge)
		} else if m, err := s.hub.Merged(cl, strategy); err != nil {
			mergeErr = err.Error()
		} else {
			me = m
		}
	}
	b = append(b, '{')
	if me != nil && len(me.Conflicts) > 0 {
		b = append(b, `"conflicts":[`...)
		for i, name := range me.Conflicts {
			if i > 0 {
				b = append(b, ',')
			}
			b = value.AppendJSONString(b, name)
		}
		b = append(b, "],"...)
	}
	b = append(b, `"id":`...)
	b = value.AppendJSONString(b, cl.ID)
	b = append(b, `,"members":`...)
	b = s.appendMembers(b, cl.Members)
	if mergeErr != "" {
		b = append(b, `,"merge_error":`...)
		b = value.AppendJSONString(b, mergeErr)
	}
	if me != nil {
		names := make([]string, 0, len(me.Values))
		for name := range me.Values {
			names = append(names, name)
		}
		slices.Sort(names)
		b = append(b, `,"merged":{`...)
		for i, name := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = value.AppendJSONString(b, name)
			b = append(b, ':')
			b = value.AppendJSON(b, me.Values[name])
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendAck renders the result line of one committed insert.
func (s *server) appendAck(b []byte, rec *entityid.HubReceipt) []byte {
	b = append(b, `{"cluster":`...)
	b = s.appendCluster(b, rec.Cluster, "")
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(rec.Index), 10)
	b = append(b, `,"matched":`...)
	b = s.appendMembers(b, rec.Matched)
	return append(b, `,"ok":true}`+"\n"...)
}

// appendErrorLine renders the result line of a refused insert line: in
// place ({"error":…,"ok":false}) or, when terminal, ending the response.
func appendErrorLine(b []byte, err error, terminal bool) []byte {
	b = append(b, `{"error":`...)
	b = value.AppendJSONString(b, err.Error())
	b = append(b, `,"ok":false`...)
	if terminal {
		b = append(b, `,"terminal":true`...)
	}
	return append(b, "}\n"...)
}

// appendNextCursor renders the line that ends a truncated /v1/clusters
// page: {"next_cursor":…}.
func appendNextCursor(b []byte, cursor string) []byte {
	b = append(b, `{"next_cursor":`...)
	b = value.AppendJSONString(b, cursor)
	return append(b, "}\n"...)
}

// appendScanError renders the terminal line of a /v1/clusters stream a
// storage read broke off: {"error":…,"terminal":true}.
func appendScanError(b []byte, err error) []byte {
	b = append(b, `{"error":`...)
	b = value.AppendJSONString(b, err.Error())
	return append(b, `,"terminal":true}`+"\n"...)
}
