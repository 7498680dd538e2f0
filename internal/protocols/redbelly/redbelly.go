// Package redbelly simulates the Red Belly mapping of Section 5.6: a
// consortium blockchain in which only a predefined subset M ⊆ V may
// append (merit 1/|M| inside M, 0 outside), every process may read, and
// a Byzantine consensus run by all of V decides the unique block per
// height (consumeToken returns true for the uniquely decided block — a
// frugal oracle with k = 1). The BlockTree contains a unique blockchain,
// so the selection function is the trivial projection.
package redbelly

import (
	"repro/internal/protocols"
	"repro/internal/protocols/bftchain"
	"repro/internal/tape"
)

// Config extends the common knobs.
type Config struct {
	protocols.Config
	// M is the number of consortium members (processes 0..M-1 may
	// propose; the rest are read-only). 0 means N/2+1.
	M              int
	Delta, Timeout int64
}

// lower maps the configuration onto the shared BFT chain, the one place
// Red Belly's row, leader rule and consortium merit rule are stated. It
// also returns the effective consortium size.
func lower(cfg Config) (bftchain.Config, int) {
	cfg.Norm()
	m := cfg.M
	if m <= 0 || m > cfg.N {
		m = cfg.N/2 + 1
	}
	return bftchain.Config{
		Config:  cfg.Config,
		System:  "RedBelly",
		Delta:   cfg.Delta,
		Timeout: cfg.Timeout,
		// Leaders rotate within the consortium M only.
		LeaderFn: func(height, view int) int {
			return (height + view) % m
		},
		// Merit: 1/|M| for members, 0 outside — non-members cannot
		// obtain tokens and therefore never propose (Section 5.6). The
		// live sequencer, node 0, is always a member.
		MeritOf: func(proc int) tape.Merit {
			if proc < m {
				return tape.Merit(1 / float64(m))
			}
			return 0
		},
	}, m
}

// Definition is Red Belly's Table 1 row.
func Definition(cfg Config) *protocols.Definition {
	bc, _ := lower(cfg)
	return bftchain.Definition(bc)
}

// Run executes the simulation.
func Run(cfg Config) *protocols.Result {
	bc, m := lower(cfg)
	res := bftchain.Run(bc)
	res.Stats["consortium"] = m
	return res
}
