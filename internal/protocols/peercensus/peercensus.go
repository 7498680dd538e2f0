// Package peercensus simulates the PeerCensus mapping of Section 5.5:
// Bitcoin-style proof-of-work grants identities (the getToken
// operation), and a dynamic Byzantine-tolerant consensus run by the
// committee of established identities commits a single key block among
// the concurrent candidates (the consumeToken returns true for exactly
// one token — a frugal oracle with k = 1). The leader of each height is
// the creator of the previous key block (the committee tracking of the
// real system), falling back to rotation on view change.
package peercensus

import (
	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/protocols/bftchain"
)

// Config extends the common knobs.
type Config struct {
	protocols.Config
	Delta, Timeout int64
}

// lower maps the configuration onto the shared BFT chain, the one place
// PeerCensus's row and leader rule are stated.
func lower(cfg Config) bftchain.Config {
	cfg.Norm()
	// lastCreator[h] is the creator of the decided block at height h;
	// the leader of height h+1 is that creator (committee anchoring).
	lastCreator := map[int]int{}
	return bftchain.Config{
		Config:  cfg.Config,
		System:  "PeerCensus",
		Delta:   cfg.Delta,
		Timeout: cfg.Timeout,
		LeaderFn: func(height, view int) int {
			base := height // genesis epoch: rotate
			if c, ok := lastCreator[height-1]; ok {
				base = c
			}
			return (base + view) % cfg.N
		},
		OnHeightDecided: func(proc, height int, b *core.Block) {
			if _, ok := lastCreator[height]; !ok {
				lastCreator[height] = b.Creator
			}
		},
	}
}

// Definition is PeerCensus's Table 1 row. Committee anchoring picks
// leaders in simulation; live, the sequencer holds the
// identity-granting token per height.
func Definition(cfg Config) *protocols.Definition { return bftchain.Definition(lower(cfg)) }

// Run executes the simulation.
func Run(cfg Config) *protocols.Result { return bftchain.Run(lower(cfg)) }
