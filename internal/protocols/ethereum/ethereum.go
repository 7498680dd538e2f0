// Package ethereum simulates the Ethereum mapping of Section 5.2:
// proof-of-work with a memory-hard-flavoured merit (the framework sees
// only the normalized α_p), flooding of valid blocks, a prodigal oracle
// (no bound on consumed tokens), and the GHOST selection function —
// the greedy heaviest-observed-subtree rule of Sompolinsky & Zohar —
// instead of the longest chain. Block times are faster than Bitcoin's
// (lower difficulty), producing more natural forks, which is exactly the
// regime GHOST was designed for. The system satisfies BT Eventual
// Consistency (Kiayias & Panagiotakos showed common prefix + chain
// growth for GHOST under synchrony).
package ethereum

import (
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/protocols"
	"repro/internal/simnet"
	"repro/internal/tape"
)

// Config extends the common knobs with Ethereum-specific ones.
type Config struct {
	protocols.Config
	// Difficulty divides the per-tick success probability; Ethereum's
	// default here is lower than Bitcoin's (faster blocks).
	Difficulty float64
	// Delta is the synchronous delay bound.
	Delta int64
	// DropRule optionally injects message loss.
	DropRule simnet.DropRule
}

// Definition is Ethereum's Table 1 row: fast-block prodigal PoW with
// GHOST heaviest-subtree selection.
func Definition(cfg Config) *protocols.Definition {
	if cfg.Difficulty <= 0 {
		cfg.Difficulty = 3 // faster blocks than Bitcoin → more forks
	}
	return &protocols.Definition{
		System:         "Ethereum",
		Selector:       core.GHOST{},
		Score:          core.LengthScore{},
		Predicate:      core.WellFormed{},
		OracleClaim:    "ΘP",
		PaperCriterion: "EC",
		FIFO:           true,
		Oracle: func(seed uint64) *oracle.Frugal {
			return oracle.NewProdigal(tape.DifficultyMapping(cfg.Difficulty), core.WellFormed{}, seed^0xe7e12e)
		},
	}
}

// Run executes the simulation. Fork flooding is the interesting
// adversarial strategy against GHOST — forged siblings inflate a
// subtree's weight, dragging correct replicas between branches.
func Run(cfg Config) *protocols.Result {
	if cfg.Delta <= 0 {
		cfg.Delta = 3
	}
	h := Definition(cfg).Start(&cfg.Config, cfg.Delta, cfg.DropRule)
	h.LotteryRounds(nil)
	h.ReadsEvery(cfg.ReadEvery, int64(cfg.Rounds))
	return h.Finish()
}
