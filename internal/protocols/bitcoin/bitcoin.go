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
	"repro/internal/simnet"
	"repro/internal/tape"
)

// Config extends the common knobs with Bitcoin-specific ones.
type Config struct {
	protocols.Config
	// Difficulty divides every per-tick success probability; higher
	// difficulty means rarer blocks and fewer natural forks.
	Difficulty float64
	// Delta is the synchronous network delay bound δ.
	Delta int64
	// DropRule optionally injects message loss (Theorem 4.6/4.7
	// experiments). Nil means lossless.
	DropRule simnet.DropRule
	// RetargetEvery, when > 0, enables difficulty adjustment: after
	// every RetargetEvery mined blocks the difficulty is rescaled so
	// the observed inter-block spacing approaches TargetSpacing
	// ticks (clamped to a 4× move per epoch, like the real rule).
	// In oracle terms a retarget swaps in a fresh Θ_P whose merit
	// mapping reflects the new difficulty — the mapping m ∈ M is an
	// oracle parameter, so changing it means changing oracles.
	RetargetEvery int
	// TargetSpacing is the desired ticks-per-block under retargeting
	// (0 means 4).
	TargetSpacing int64
}

// oracleSalt separates the oracle's tapes from the network's use of the
// run seed; retarget epoch e draws from seed^oracleSalt + e.
const oracleSalt = 0xb17c011

// Definition is Bitcoin's Table 1 row: the prodigal PoW oracle, the
// longest-chain selection and the validity predicate.
func Definition(cfg Config) *protocols.Definition {
	return &protocols.Definition{
		System:         "Bitcoin",
		Selector:       core.LongestChain{},
		Score:          core.LengthScore{},
		Predicate:      core.WellFormed{},
		OracleClaim:    "ΘP",
		PaperCriterion: "EC",
		FIFO:           true,
		Oracle:         func(seed uint64) *oracle.Frugal { return prodigal(cfg.difficulty(), seed^oracleSalt) },
	}
}

// difficulty is the run's starting difficulty (0 means 8).
func (cfg Config) difficulty() float64 {
	if cfg.Difficulty <= 0 {
		return 8
	}
	return cfg.Difficulty
}

// prodigal is Θ_P under the difficulty's merit mapping.
func prodigal(difficulty float64, seed uint64) *oracle.Frugal {
	return oracle.NewProdigal(tape.DifficultyMapping(difficulty), core.WellFormed{}, seed)
}

// Run executes the simulation and returns the recorded result.
func Run(cfg Config) *protocols.Result {
	if cfg.Delta <= 0 {
		cfg.Delta = 3
	}
	if cfg.TargetSpacing <= 0 {
		cfg.TargetSpacing = 4
	}
	h := Definition(cfg).Start(&cfg.Config, cfg.Delta, cfg.DropRule)

	// Difficulty retargeting state.
	difficulty := cfg.difficulty()
	blocksInEpoch := 0
	epochStart := int64(0)
	epochSeed := cfg.Seed ^ oracleSalt
	retarget := func(now int64) {
		elapsed := now - epochStart
		if elapsed < 1 {
			elapsed = 1
		}
		actual := float64(elapsed) / float64(cfg.RetargetEvery)
		factor := float64(cfg.TargetSpacing) / actual
		// Real Bitcoin clamps each retarget to a 4× move.
		if factor > 4 {
			factor = 4
		}
		if factor < 0.25 {
			factor = 0.25
		}
		// Spacing below target means blocks come too fast: raise
		// the difficulty by the same factor the spacing fell short.
		difficulty *= factor
		if difficulty < 1 {
			difficulty = 1
		}
		epochSeed++
		h.SwapOracle(prodigal(difficulty, epochSeed))
		h.Stats["retargets"]++
		blocksInEpoch = 0
		epochStart = now
	}

	// Mining: one getToken attempt per process per tick. Epoch
	// accounting runs inside the mint so honest and adversarial blocks
	// count toward the retarget alike.
	h.LotteryRounds(func() {
		if cfg.RetargetEvery > 0 {
			blocksInEpoch++
			if blocksInEpoch >= cfg.RetargetEvery {
				retarget(h.Sim.Now())
			}
		}
	})
	h.ReadsEvery(cfg.ReadEvery, int64(cfg.Rounds))
	res := h.Finish()
	res.Stats["finalDifficultyPct"] = int(difficulty * 100)
	return res
}
