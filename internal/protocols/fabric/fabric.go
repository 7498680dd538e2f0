// Package fabric simulates the Hyperledger Fabric mapping of Section
// 5.7: a permissioned system where transactions are executed by a set of
// endorsers, ordered by a total-order-broadcast ordering service (a
// sequencer here), and cut into blocks when a stop condition is met —
// either a maximal number of transactions per block or a maximal elapsed
// time since the first transaction of the batch, exactly the two stop
// conditions the paper lists. A unique token per height is consumed (the
// leader-cut block), so Fabric maps to the frugal oracle with k = 1 and
// implements a strongly consistent BlockTree.
package fabric

import (
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/protocols"
	"repro/internal/simnet"
	"repro/internal/tape"
	"repro/internal/transport"
)

// Config is the common knob set: Fabric declares no knobs of its own.
// The type stays because code outside the module's packages
// (benchmark/) builds it.
type Config struct{ protocols.Config }

// The pipeline's fixed shape: the first N/2+1 processes endorse and a
// transaction needs a majority of their endorsements; a client submits
// every txInterval; the orderer cuts a block at maxTxPerBlock
// transactions (the size stop condition) or maxBatchDelay after the
// batch's first transaction (the time stop condition).
const (
	maxTxPerBlock = 4
	maxBatchDelay = 12
	txInterval    = 3
)

// Message types of the endorsement flow.
type (
	endorseReq struct {
		Tx     core.Tx
		Client int
		Seq    int
		Ack    any // the endorseAck every endorser answers with, boxed once
	}
	endorseAck struct {
		Client int
		Seq    int
	}
)

// Definition is Fabric's Table 1 row: the orderer consumes the unique
// height token of the frugal oracle with k = 1 — one block per height, a
// single chain. Cutting a block is not a lottery: the merit is 1 for
// whoever cuts, and every draw grants.
func Definition(Config) *protocols.Definition {
	return &protocols.Definition{
		System:         "Hyperledger",
		Selector:       core.SingleChain{},
		Score:          core.LengthScore{},
		Predicate:      core.WellFormed{},
		OracleClaim:    "ΘF,k=1",
		PaperCriterion: "SC",
		Sequencer:      true,
		MeritOf:        func(int) tape.Merit { return 1 },
		Delta:          2,
		Oracle: func(seed uint64) *oracle.Frugal {
			return oracle.NewFrugal(1, func(tape.Merit) float64 { return 1 }, core.WellFormed{}, seed^0xfab21c)
		},
	}
}

// LiveProfile is the definition under the live driver: the ordering
// service collapses onto the sequencer policy (every append routes
// through node 0, the orderer).
func LiveProfile(cfg Config) transport.Profile { return Definition(cfg).Profile(cfg.Config) }

// Run executes the simulation.
func Run(cfg Config) *protocols.Result {
	h := Definition(cfg).Start(&cfg.Config)
	endorsers := cfg.N/2 + 1
	sim, group, orc, stats := h.Sim, h.Group, h.Oracle, h.Stats
	nets := group.Nets()
	tob := consensus.NewTOB(nets, 0) // process 0 is the ordering service
	orderer := 0

	// Adversarial wiring: an equivocating ordering service. Fabric's
	// whole claim to the frugal oracle Θ_F,k=1 rests on the orderer
	// cutting ONE block per height; a Byzantine orderer that signs two
	// conflicting blocks for the same height (reusing the height's
	// token) is exactly the attack the k-Fork Coherence checker was
	// built to measure. Only the orderer can equivocate on cuts,
	// whichever process the configuration names.
	equiv := h.Equivocator(orderer)
	need := int32(endorsers/2 + 1)

	// Endorsement bookkeeping at the clients: acks per submitted tx, by
	// its seq, which is unique across the run. A tx is forwarded when
	// its count reaches need, and the acks that come later find it there.
	acks := make([]int32, cfg.Rounds)

	// Batch state at the orderer.
	var (
		batch      []core.Tx
		batchStart int64
		height     int
	)
	cut := func(reason string) {
		if len(batch) == 0 {
			return
		}
		stats["blocks"]++
		stats["cut_"+reason]++
		parent := group.Procs[orderer].SelectedHead()
		payload := core.EncodeTxs(batch)
		b, _ := h.Def.Token(orc, h.Merit(orderer), parent, orderer, height, payload)
		if b == nil {
			return
		}
		if _, consumed := orc.ConsumeToken(b); consumed {
			stats["consumed"]++
			if equiv != nil {
				equiv.FloodSiblings(b)
			} else {
				group.Procs[orderer].AppendLocal(b)
			}
		}
		height++
		batch = nil
	}

	// The per-process handlers: endorsers answer endorsement
	// requests; clients count acks and forward endorsed txs to the
	// ordering service; the orderer batches delivered txs.
	for i := 0; i < cfg.N; i++ {
		id := i
		nets[id].AddHandler(func(m simnet.Message) {
			switch msg := m.Payload.(type) {
			case endorseReq:
				if id < endorsers {
					stats["endorsements"]++
					nets[id].Send(msg.Client, msg.Ack)
				}
			case endorseAck:
				if id != msg.Client || acks[msg.Seq] >= need {
					return
				}
				if acks[msg.Seq]++; acks[msg.Seq] == need {
					stats["ordered"]++
					tx := core.Tx{From: 0, To: uint32(id + 1), Amount: uint32(msg.Seq%97 + 1)}
					tob.Broadcast(id, tx)
				}
			}
		})
	}

	// The ordering service delivers txs in total order; the orderer
	// process batches them and cuts blocks by size or elapsed time.
	tob.OnDeliver = func(proc, seq int, payload any) {
		if proc != orderer {
			return
		}
		tx, ok := payload.(core.Tx)
		if !ok {
			return
		}
		if len(batch) == 0 {
			batchStart = sim.Now()
			// Arm the time-based stop condition for this batch.
			start := batchStart
			nets[orderer].After(maxBatchDelay, func() {
				if len(batch) > 0 && batchStart == start && sim.Now()-batchStart >= maxBatchDelay {
					cut("time")
				}
			})
		}
		batch = append(batch, tx)
		if len(batch) >= maxTxPerBlock {
			cut("size")
		}
	}

	// Clients submit transactions periodically, transaction seq at time
	// 1 + seq·txInterval. The request, and the ack it asks for, are each
	// boxed once for all endorsers.
	sim.Every(1, txInterval, cfg.Rounds, func(seq int) {
		if !cfg.Tick(seq, sim.Now()) {
			return
		}
		client := int(1+int64(seq)*txInterval) % cfg.N
		stats["submitted"]++
		var req any = endorseReq{Tx: core.Tx{From: 0, To: uint32(client + 1), Amount: 1}, Client: client, Seq: seq,
			Ack: endorseAck{Client: client, Seq: seq}}
		for e := 0; e < endorsers; e++ {
			nets[client].Send(e, req)
		}
	})

	// Periodic reads.
	h.ReadsEvery(cfg.ReadEvery, int64(cfg.Rounds)*txInterval+maxBatchDelay*2)

	sim.RunUntilIdle()
	cut("final")
	return h.Finish()
}
