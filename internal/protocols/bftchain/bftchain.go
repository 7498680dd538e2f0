// Package bftchain is the shared harness for the strongly consistent
// protocol family of Section 5 — ByzCoin (§5.3), PeerCensus (§5.5) and
// Red Belly (§5.6): a chain of PBFT instances, one per height, in which
// the leader's proposal is a block validated by the frugal oracle with
// k = 1, the consensus decision is the consumeToken (exactly one block
// per height enters the tree), and the decided block is disseminated by
// flooding through the replicated-BlockTree layer. The three systems
// differ in who leads each height and who is allowed to propose, which
// is what the hooks parameterize.
package bftchain

import (
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/protocols"
	"repro/internal/tape"
)

// viewTimeout is the PBFT view-change timeout.
const viewTimeout = 40

// Config is one BFT-chain run: the common knobs plus the hooks in which
// the family's systems differ.
type Config struct {
	protocols.Config
	// System names the protocol for the result.
	System string
	// LeaderFn picks the leader per (height, view); nil = round-robin.
	LeaderFn func(height, view int) int
	// MeritOf returns the proposing merit of a process; nil = common
	// normalized merit. Red Belly sets 0 outside the consortium.
	MeritOf func(proc int) tape.Merit
	// OnHeightDecided, if set, observes each locally decided height
	// (used by PeerCensus to track the committee).
	OnHeightDecided func(proc, height int, b *core.Block)
}

// Definition is the family's Table 1 row under cfg's name and merit
// rule. The frugal oracle with k = 1: getToken validates proposals (the
// PoW/Sortition/endorsement step of the real systems), the consensus
// decision consumes the single token per height. A high effective
// probability keeps proposal mining short: validation cost is not what
// these systems' consistency depends on.
func Definition(cfg Config) *protocols.Definition {
	if cfg.System == "" {
		cfg.System = "BFTChain"
	}
	return &protocols.Definition{
		System:         cfg.System,
		Selector:       core.SingleChain{},
		Score:          core.LengthScore{},
		Predicate:      core.WellFormed{},
		OracleClaim:    "ΘF,k=1",
		PaperCriterion: "SC",
		Sequencer:      true,
		MineCap:        1 << 12,
		MeritOf:        cfg.MeritOf,
		Delta:          3,
		Oracle: func(seed uint64) *oracle.Frugal {
			return oracle.NewFrugal(1, func(a tape.Merit) float64 {
				if a <= 0 {
					return 0
				}
				return 0.5
			}, core.WellFormed{}, seed^0xbf7c4a11)
		},
	}
}

// Run executes Rounds heights of the BFT chain.
func Run(cfg Config) *protocols.Result {
	h := Definition(cfg).Start(&cfg.Config)
	sim, group, orc, stats := h.Sim, h.Group, h.Oracle, h.Stats
	consumedAt := make(map[int]bool) // height → token consumed

	// engStart is assigned after the engine exists; the OnDecide
	// closure below captures the variable, not the value, so the
	// cycle engine → OnDecide → Start(engine) is well-defined.
	// Single-threaded simulator: no races.
	var engStart func(height int)

	eng, err := consensus.NewEngine(group.Nets(), consensus.Config{
		Timeout:  viewTimeout,
		LeaderFn: cfg.LeaderFn,
		Propose: func(proc, height int) *core.Block {
			// A process outside M (merit 0) draws nothing: it is not
			// allowed to propose.
			parent := group.Procs[proc].SelectedHead()
			b, attempts := h.Def.Token(orc, h.Merit(proc), parent, proc, height, protocols.CoinbasePayload(proc, height))
			stats["mineAttempts"] += attempts
			return b
		},
		OnDecide: func(proc, height int, b *core.Block) {
			stats["decisions"]++
			if cfg.OnHeightDecided != nil {
				cfg.OnHeightDecided(proc, height, b)
			}
			// The first local decision consumes the token — the
			// consensus IS the consumeToken (Section 5.3/5.6).
			if !consumedAt[height] {
				consumedAt[height] = true
				if _, ok := orc.ConsumeToken(b); ok {
					stats["consumed"]++
				}
			}
			// The creator floods the decided block through the
			// replica layer (update + send; replicas record
			// receive + update).
			if proc == b.Creator {
				group.Procs[proc].AppendLocal(b)
			}
			// The creator's decision also drives the height
			// sequencing: start the next height once the flood
			// has settled.
			if proc == b.Creator && height+1 < cfg.Rounds {
				sim.Schedule(cfg.Delta+1, func() { engStart(height + 1) })
			}
		},
	})
	if err != nil {
		panic(err)
	}

	started := map[int]bool{}
	engStart = func(height int) {
		if started[height] {
			return
		}
		started[height] = true
		if !cfg.Tick(height, sim.Now()) {
			return
		}
		for p := range group.Procs {
			eng.Start(p, height)
		}
	}
	engStart(0)

	h.ReadsEvery(cfg.ReadEvery*4, int64(cfg.Rounds)*(viewTimeout+cfg.Delta*4))
	res := h.Finish()
	gets, grants, consumed, rejected := orc.Stats()
	stats["getToken"] = gets
	stats["grants"] = grants
	stats["oracleConsumed"] = consumed
	stats["oracleRejected"] = rejected
	return res
}
