package hub

func (h *Hub) replay(ts []int) error {
	for _, t := range ts {
		if err := h.Insert(t); err != nil { // want `call to \(\*entityid/internal/hub\.Hub\)\.Insert: recovery reads the log .*\(PR 33\)`
			return err
		}
	}
	return h.commitTraced(0) // want `call to \(\*entityid/internal/hub\.Hub\)\.commitTraced: recovery`
}
