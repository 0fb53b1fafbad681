package hub

// load adds a recovered source through AddSource, which is marked
// commitpath in the repo: the rule names the callees recovery must not
// reach, not every commit-path function.
func (h *Hub) load(name string, rel []int) error {
	if err := h.AddSource(name, rel); err != nil {
		return err
	}
	return h.Link(0) // want `call to \(\*entityid/internal/hub\.Hub\)\.Link: recovery`
}
