package consensus

import "repro/internal/core"

// Decided reports whether process p decided height h, and the block.
func (e *Engine) Decided(p, h int) (*core.Block, bool) {
	in, ok := e.nodes[p].inst[h]
	if !ok || !in.decided {
		return nil, false
	}
	// The decided block is the proposal matching the committed digest.
	for _, sm := range in.commits {
		for id := range sm {
			if b := in.blocks[id]; b != nil && in.decided {
				return b, true
			}
		}
	}
	return in.proposal, in.decided
}
