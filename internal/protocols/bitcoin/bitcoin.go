// Package bitcoin simulates the Bitcoin mapping of Section 5.1:
// permissionless proof-of-work block creation (the getToken operation is
// the PoW lottery, weighted by each process's normalized hashing power
// α_p), flooding of valid blocks over reliable FIFO channels, a
// consumeToken that accepts every valid block (no bound on consumed
// tokens — the prodigal oracle Θ_P), and the selection function f
// returning the longest chain. Per the paper (and Garay et al.'s
// backbone analysis), under synchrony the system satisfies BT Eventual
// Consistency but not BT Strong Consistency.
package bitcoin

import (
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/protocols"
	"repro/internal/tape"
)

// oracleSalt separates the oracle's tapes from the network's use of the
// run seed.
const oracleSalt = 0xb17c011

// Definition is Bitcoin's Table 1 row: the prodigal PoW oracle, the
// longest-chain selection and the validity predicate.
func Definition(cfg protocols.Config) *protocols.Definition {
	return &protocols.Definition{
		System:         "Bitcoin",
		Selector:       core.LongestChain{},
		Score:          core.LengthScore{},
		Predicate:      core.WellFormed{},
		OracleClaim:    "ΘP",
		PaperCriterion: "EC",
		FIFO:           true,
		Adversaries:    protocols.LotteryAdversaries,
		Delta:          3,
		Oracle: func(seed uint64) *oracle.Frugal {
			return oracle.NewProdigal(tape.DifficultyMapping(difficulty(cfg)), core.WellFormed{}, seed^oracleSalt)
		},
	}
}

// difficulty is the run's difficulty (0 means 8).
func difficulty(cfg protocols.Config) float64 {
	if cfg.Difficulty <= 0 {
		return 8
	}
	return cfg.Difficulty
}

// Run executes the simulation and returns the recorded result: one
// getToken attempt per process per tick.
func Run(cfg protocols.Config) *protocols.Result {
	h := Definition(cfg).Start(&cfg)
	h.LotteryRounds()
	h.ReadsEvery(cfg.ReadEvery, int64(cfg.Rounds))
	res := h.Finish()
	res.Stats["finalDifficultyPct"] = int(difficulty(cfg) * 100)
	return res
}
