// Package byzcoin simulates the ByzCoin mapping of Section 5.3: block
// creation is separated from transaction validation — a proof-of-work
// lottery elects the key-block proposer (the getToken operation), and a
// PBFT variant commits exactly one key block per height (the
// consumeToken, a frugal oracle with k = 1). The committee is formed by
// the recent miners; the leader of each height is the PoW winner. Under
// the semi-synchronous assumption the system implements a strongly
// consistent BlockTree.
package byzcoin

import (
	"repro/internal/consensus"
	"repro/internal/protocols"
	"repro/internal/protocols/bftchain"
	"repro/internal/tape"
)

// Config extends the common knobs.
type Config struct {
	protocols.Config
	// Delta / Timeout as in bftchain.
	Delta, Timeout int64
	// Behaviors injects Byzantine behaviors.
	Behaviors map[int]consensus.Behavior
}

// lower maps the configuration onto the shared BFT chain, the one place
// ByzCoin's row and leader rule are stated.
func lower(cfg Config) bftchain.Config {
	merits := cfg.Norm()
	// PoW winner per height: a seeded lottery weighted by hashing
	// power — ByzCoin's key-block mining race. The winner leads the
	// PBFT commit of its key block; on view change the lead falls
	// back to rotation (the real system re-mines).
	lottery := tape.NewRNG(cfg.Seed ^ 0xb42c014)
	winners := make([]int, cfg.Rounds+1)
	for h := range winners {
		x := lottery.Float64()
		acc := 0.0
		winners[h] = cfg.N - 1
		for i, m := range merits {
			acc += float64(m)
			if x < acc {
				winners[h] = i
				break
			}
		}
	}
	return bftchain.Config{
		Config:    cfg.Config,
		System:    "ByzCoin",
		Delta:     cfg.Delta,
		Timeout:   cfg.Timeout,
		Behaviors: cfg.Behaviors,
		LeaderFn: func(height, view int) int {
			return (winners[height%len(winners)] + view) % cfg.N
		},
	}
}

// Definition is ByzCoin's Table 1 row. The PoW leader election is a
// simulation-time concern; live, the height token consumed at the
// sequencer is the PBFT commit.
func Definition(cfg Config) *protocols.Definition { return bftchain.Definition(lower(cfg)) }

// Run executes the simulation.
func Run(cfg Config) *protocols.Result { return bftchain.Run(lower(cfg)) }
