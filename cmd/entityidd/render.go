// The one renderer of everything that shows a cluster: insert acks,
// GET /v1/cluster and each /v1/clusters line are appended into a
// caller-owned []byte, with no intermediate map and no reflection. A
// member's tuple is the tuple codec's bytes (relation.AppendTupleJSON —
// what the log and the snapshots hold too); this file is the objects
// around them. The output is byte for byte what encoding/json writes for
// the sorted-key map form of the same cluster (kept in render_test.go as
// the reference the property test and FuzzClusterJSON hold this file and
// the codec's appenders against) — string escaping and float form
// included.
package main

import (
	"fmt"
	"slices"
	"strconv"

	"entityid"
	"entityid/internal/relation"
	"entityid/internal/value"
)

// appendMembers renders a member list as an array of
// {"index":…,"source":…,"tuple":[…]} objects.
func appendMembers(b []byte, ms []entityid.ClusterMember) []byte {
	b = append(b, '[')
	for i, m := range ms {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"index":`...)
		b = strconv.AppendInt(b, int64(m.Index), 10)
		b = append(b, `,"source":`...)
		b = value.AppendJSONString(b, m.Source)
		b = append(b, `,"tuple":`...)
		b = relation.AppendTupleJSON(b, m.Tuple)
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
	b = appendMembers(b, cl.Members)
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
	b = appendMembers(b, rec.Matched)
	return append(b, `,"ok":true}`+"\n"...)
}
