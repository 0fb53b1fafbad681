package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"entityid/bench/gen"
)

// truth maps a served tuple back to the generator's ground truth by
// what identifies it to a consumer — source and key values — so the
// gate depends on neither cluster IDs nor tuple positions.
type truth struct {
	entity map[string]int
}

func tupleKey(source, name, loc string) string { return source + "\x1f" + name + "\x1f" + loc }

func newTruth(w *gen.Workload) *truth {
	t := &truth{entity: make(map[string]int, len(w.Tuples))}
	for _, tu := range w.Tuples {
		t.entity[tupleKey(gen.SourceName(tu.Src), tu.Vals[0], tu.Vals[1])] = tu.Entity
	}
	return t
}

// truePairs is the number of tuple pairs among the first n tuples
// that model one entity: the denominator of recall.
func truePairs(w *gen.Workload, n int) int64 {
	per := map[int]int64{}
	for _, tu := range w.Tuples[:n] {
		per[tu.Entity]++
	}
	var pairs int64
	for _, k := range per {
		pairs += k * (k - 1) / 2
	}
	return pairs
}

// servedCluster is one line of /v1/clusters or one /v1/cluster reply.
type servedCluster struct {
	Members []struct {
		Source string    `json:"source"`
		Tuple  []*string `json:"tuple"`
	} `json:"members"`
}

// errUnsound marks a cluster that breaks one of the paper's guarantees,
// as opposed to an answer that cannot be read at all.
var errUnsound = errors.New("unsound")

// check verifies one served cluster against the ground truth and
// returns its members' keys. Soundness (§3): every member models the
// same entity. Uniqueness (§3.2): no two members come from one source.
// A cluster that breaks either comes back with its keys and an
// errUnsound error.
func (t *truth) check(line []byte) ([]string, error) {
	var c servedCluster
	if err := json.Unmarshal(line, &c); err != nil {
		return nil, fmt.Errorf("served cluster does not decode: %w", err)
	}
	if len(c.Members) == 0 {
		return nil, fmt.Errorf("served cluster has no members: %s", line)
	}
	keys := make([]string, len(c.Members))
	entity := -1
	sources := map[string]bool{}
	var unsound error
	for i, m := range c.Members {
		if len(m.Tuple) < 2 || m.Tuple[0] == nil || m.Tuple[1] == nil {
			return nil, fmt.Errorf("served member without key values: %s", line)
		}
		keys[i] = tupleKey(m.Source, *m.Tuple[0], *m.Tuple[1])
		e, ok := t.entity[keys[i]]
		if !ok {
			return nil, fmt.Errorf("served tuple %q was never sent", keys[i])
		}
		if entity >= 0 && e != entity && unsound == nil {
			unsound = fmt.Errorf("%w cluster: it mixes entities %d and %d: %s", errUnsound, entity, e, line)
		}
		entity = e
		if sources[m.Source] && unsound == nil {
			unsound = fmt.Errorf("%w cluster: uniqueness violated by two tuples of %s: %s", errUnsound, m.Source, line)
		}
		sources[m.Source] = true
	}
	return keys, unsound
}

// checkReply verifies a point-read reply: a sound cluster that holds
// the tuple that was asked for.
func (t *truth) checkReply(w *gen.Workload, tuple int, body []byte) error {
	keys, err := t.check(body)
	if err != nil {
		return err
	}
	tu := w.Tuples[tuple]
	want := tupleKey(gen.SourceName(tu.Src), tu.Vals[0], tu.Vals[1])
	for _, k := range keys {
		if k == want {
			return nil
		}
	}
	return fmt.Errorf("point read of %q answered with a cluster that does not hold it", want)
}

// partition is the canonical form of one full /v1/clusters answer.
type partition struct {
	Digest   string `json:"digest"` // sha256 over the sorted clusters of sorted member keys
	Clusters int    `json:"clusters"`
	Tuples   int    `json:"tuples"`
	Pairs    int64  `json:"pairs"` // tuple pairs served together
	Unsound  int    `json:"unsound"`
}

// checkPartition verifies every cluster of a /v1/clusters body and
// canonicalises the partition. Unsound clusters are counted, and the
// first is returned as the error, beside the whole partition.
func (t *truth) checkPartition(body []byte) (partition, error) {
	var p partition
	var firstUnsound error
	var canon []string
	seen := map[string]bool{}
	for _, line := range bytes.Split(body, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		keys, err := t.check(line)
		if errors.Is(err, errUnsound) {
			p.Unsound++
			if firstUnsound == nil {
				firstUnsound = err
			}
		} else if err != nil {
			return p, err
		}
		for _, k := range keys {
			if seen[k] {
				return p, fmt.Errorf("tuple %q is served in two clusters", k)
			}
			seen[k] = true
		}
		sort.Strings(keys)
		canon = append(canon, strings.Join(keys, "\x1e"))
		p.Tuples += len(keys)
		p.Pairs += int64(len(keys)) * int64(len(keys)-1) / 2
	}
	sort.Strings(canon)
	h := sha256.New()
	for _, c := range canon {
		h.Write([]byte(c))
		h.Write([]byte{'\n'})
	}
	p.Digest = hex.EncodeToString(h.Sum(nil))
	p.Clusters = len(canon)
	return p, firstUnsound
}

// gateInput is everything the correctness gate compares.
type gateInput struct {
	sent        int       // insert lines sent
	acked       int       // acknowledged ok
	stats       hubStats  // /v1/stats before the kill
	before      partition // /v1/clusters before kill -9
	after       partition // /v1/clusters after restart
	golden      *golden   // nil when this (workload, seed, seconds) has none
	inputDigest string
}

// gate returns the reasons the run is incorrect; none means it passed.
func gate(in gateInput) []string {
	var bad []string
	fail := func(format string, a ...any) { bad = append(bad, fmt.Sprintf(format, a...)) }
	if in.acked != in.sent {
		fail("%d lines sent, %d acknowledged ok", in.sent, in.acked)
	}
	if in.stats.Tuples != in.acked {
		fail("/v1/stats reports %d tuples, %d were acknowledged", in.stats.Tuples, in.acked)
	}
	if in.before.Tuples != in.acked {
		fail("/v1/clusters serves %d tuples, %d were acknowledged", in.before.Tuples, in.acked)
	}
	if in.before.Clusters != in.stats.Clusters {
		fail("/v1/clusters serves %d clusters, /v1/stats reports %d", in.before.Clusters, in.stats.Clusters)
	}
	if in.after.Digest != in.before.Digest {
		fail("partition digest after kill -9 and restart is %s, before it was %s", in.after.Digest, in.before.Digest)
	}
	if g := in.golden; g != nil {
		if g.InputDigest != in.inputDigest {
			fail("generated inputs hash to %s, golden says %s", in.inputDigest, g.InputDigest)
		}
		if g.Tuples != in.stats.Tuples || g.Clusters != in.stats.Clusters || g.Matches != in.stats.Matches {
			fail("stats %+v differ from golden tuples=%d clusters=%d matches=%d", in.stats, g.Tuples, g.Clusters, g.Matches)
		}
		if g.Digest != in.before.Digest {
			fail("partition digest %s differs from golden %s", in.before.Digest, g.Digest)
		}
	}
	return bad
}

// golden pins one run's inputs and served partition.
type golden struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	InputDigest string `json:"input_digest"`
	Tuples      int    `json:"tuples"`
	Clusters    int    `json:"clusters"`
	Matches     int    `json:"matches"`
	Digest      string `json:"digest"`
}

// loadGolden finds the golden for (workload, seed, seconds) in the
// golden file, if there is one. The driver runs other seeds, for which
// the gate still holds soundness, uniqueness, counts and durability.
func loadGolden(path, workload string, seed int64, seconds int) (*golden, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all []golden
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range all {
		if g := &all[i]; g.Workload == workload && g.Seed == seed && g.Seconds == seconds {
			return g, nil
		}
	}
	return nil, nil
}
