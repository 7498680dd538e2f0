// Package algorand simulates the Algorand mapping of Section 5.4:
// cryptographic sortition implements getToken — a stake-weighted lottery
// selects a committee and gives its highest-priority member the right to
// propose the round's block — and a BA*-style Byzantine agreement
// implements consumeToken, committing that block when the committee
// reaches a two-thirds vote. BA* may fork with (very small) probability
// when the network misbehaves (Theorem 2 of the Algorand paper bounds it
// by 10⁻⁷). The simulator does not inject that residual fork, so a
// benign run classifies as a frugal oracle with k = 1 — "SC w.h.p.",
// where "w.h.p." is the paper's caveat, not something a run measures.
package algorand

import (
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/protocols"
	"repro/internal/simnet"
	"repro/internal/tape"
)

// proposal is the proposer's block broadcast; vote is a committee vote.
type (
	proposal struct {
		Round int
		Block *core.Block
	}
	vote struct {
		Round int
		ID    core.BlockID
		Voter int
	}
)

// Definition is Algorand's Table 1 row: sortition is the frugal oracle's
// lottery, retried as the real proposer re-runs it, and the BA*
// agreement consumes the height's single token.
func Definition(protocols.Config) *protocols.Definition {
	return &protocols.Definition{
		System:         "Algorand",
		Selector:       core.LongestChain{},
		Score:          core.LengthScore{},
		Predicate:      core.WellFormed{},
		OracleClaim:    "ΘF,k=1 (w.h.p.)",
		PaperCriterion: "SC w.h.p.",
		Sequencer:      true,
		MineCap:        1 << 10,
		Delta:          2, // Algorand assumes strong synchrony for liveness
		Oracle: func(seed uint64) *oracle.Frugal {
			return oracle.NewFrugal(1, func(a tape.Merit) float64 {
				if a <= 0 {
					return 0
				}
				return 0.9 // sortition succeeds quickly for the selected proposer
			}, core.WellFormed{}, seed^0xa16042ad)
		},
	}
}

// Run executes the simulation.
func Run(cfg protocols.Config) *protocols.Result {
	h := Definition(cfg).Start(&cfg)
	// The sortition committee: max(3, N/2+1) distinct members, and a
	// run has no more than N.
	committee := min(max(3, cfg.N/2+1), cfg.N)
	sim, group, orc, merits, stats := h.Sim, h.Group, h.Oracle, h.Merits, h.Stats
	nets := group.Nets()
	sortRNG := tape.NewRNG(cfg.Seed ^ 0x50421710)

	// Per-round state, reset in each round closure.
	type roundState struct {
		votes     map[core.BlockID]map[int]bool
		committee map[int]bool
		block     map[core.BlockID]*core.Block
		committed bool
	}
	rounds := make(map[int]*roundState)
	stateOf := func(r int) *roundState {
		st, ok := rounds[r]
		if !ok {
			st = &roundState{
				votes:     make(map[core.BlockID]map[int]bool),
				committee: make(map[int]bool),
				block:     make(map[core.BlockID]*core.Block),
			}
			rounds[r] = st
		}
		return st
	}
	threshold := 2*committee/3 + 1

	// Message handling: proposals trigger committee votes; a vote
	// quorum commits (the consumeToken succeeding).
	for i := 0; i < cfg.N; i++ {
		id := i
		nets[id].AddHandler(func(m simnet.Message) {
			switch msg := m.Payload.(type) {
			case proposal:
				st := stateOf(msg.Round)
				st.block[msg.Block.ID] = msg.Block
				if st.committee[id] {
					nets[id].Broadcast(vote{Round: msg.Round, ID: msg.Block.ID, Voter: id})
				}
			case vote:
				st := stateOf(msg.Round)
				if !st.committee[msg.Voter] {
					return
				}
				if st.votes[msg.ID] == nil {
					st.votes[msg.ID] = make(map[int]bool)
				}
				st.votes[msg.ID][msg.Voter] = true
				if len(st.votes[msg.ID]) >= threshold && !st.committed {
					st.committed = true
					b := st.block[msg.ID]
					if b == nil {
						return
					}
					stats["committed"]++
					if _, ok := orc.ConsumeToken(b); ok {
						stats["consumed"]++
					}
					// The creator disseminates the committed
					// block through the replica layer (flood);
					// every other process receives and updates.
					group.Procs[b.Creator].AppendLocal(b)
				}
			}
		})
	}

	// weightedPick selects a process by stake.
	weightedPick := func() int {
		x := sortRNG.Float64()
		acc := 0.0
		for i, m := range merits {
			acc += float64(m)
			if x < acc {
				return i
			}
		}
		return cfg.N - 1
	}

	roundLen := cfg.Delta*6 + 2
	for r := 0; r < cfg.Rounds; r++ {
		round := r
		sim.Schedule(int64(round)*roundLen+1, func() {
			if !cfg.Tick(round, sim.Now()) {
				return
			}
			st := stateOf(round)
			// Sortition: committee members weighted by stake,
			// the first pick is the highest-priority proposer.
			proposer := weightedPick()
			st.committee[proposer] = true
			for len(st.committee) < committee {
				st.committee[weightedPick()] = true
			}
			head := group.Procs[proposer].SelectedHead()
			b, _ := h.Def.Token(orc, merits[proposer], head, proposer, round, protocols.CoinbasePayload(proposer, round))
			if b == nil {
				return
			}
			stats["proposals"]++
			nets[proposer].Broadcast(proposal{Round: round, Block: b})
		})
	}

	h.ReadsEvery(cfg.ReadEvery, int64(cfg.Rounds)*roundLen)
	return h.Finish()
}
