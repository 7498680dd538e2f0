package history

// StagedComms reports how many events are currently staged (0 outside a
// parallel phase once the barrier ran).
func (r *Recorder) StagedComms() int {
	n := 0
	for i := range r.staged {
		n += len(r.staged[i])
	}
	return n
}
