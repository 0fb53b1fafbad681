package hub

// The read side before members were where they lie: each walked
// member's values built into a buffer, and each cluster's ID a string of
// its own.

type member struct{}

func (h *Hub) materializeInto(buf []member, vals []int) ([]member, []int) { return buf, vals } // want `func materializeInto: a served member is its view's rows and its row`

func nodeID(src, idx int) string { return "" } // want `func nodeID: a served member is its view's rows and its row`

// Silent: the member set laid out where it lies, and an ID cut from a
// block, under names of their own.
func (h *Hub) materialize(buf []member) []member { return buf }

type idBlock struct{}

func (b *idBlock) id(src, idx int) string { return "" }

// Silent: a name that only begins with a retired one.
func nodeIDs() []string { return nil }
