package hub

import (
	"fmt"
	"testing"

	"entityid/internal/datagen"
)

// TestHubClusteringProperties: K sources with planted cross-source
// entities, three insertion orders each, ingested in two batches. Every
// order must end at the planted ground truth — so the partition is
// order-independent — and on the way the runner holds each step to the
// model: no cluster ever holds two tuples of one source, and matching
// tables, hence clusters, only grow or merge (§3.3).
func TestHubClusteringProperties(t *testing.T) {
	for _, seed := range []int64{11, 22, 33} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			for shuffle := int64(0); shuffle < 3; shuffle++ {
				ws := workSpec{kind: "multi", shuffle: seed*100 + shuffle, cfg: datagen.MultiConfig{
					Sources: 4, Entities: 60, PresenceFrac: 0.6, HomonymRate: 0.25, MissingPhone: 0.1, DirtyPhone: 0.2, Seed: seed,
				}}
				w := ws.build()
				n := len(w.items)
				for _, r := range runSchedule(t, schedule{work: ws, ops: append(setup(w), batch(span(0, n/2)...), batch(span(n/2, n)...))}) {
					if err := r.servesTruth(); err != nil {
						t.Fatalf("shuffle %d: %v", shuffle, err)
					}
				}
			}
		})
	}
}
