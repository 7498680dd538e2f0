package experiments

import (
	"repro/btsim"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/simnet"
)

// This file implements the experiments that go beyond the paper's own
// artifacts, covering its explicitly-flagged open threads:
//
//   - ExtensionMPC: the Monotonic Prefix Consistency criterion of the
//     paper's reference [20], positioned against SC and EC on the same
//     protocol runs (the Section 1 remark that [20]'s impossibility
//     applies to Strong Prefix);
//   - ExtensionFairness: the conclusion's "fairness properties for
//     oracles" — the generic merit parameter measured against each
//     process's share of the selected chain;
//   - ExtensionByzantineFlood: the Definition 4.2 restriction made
//     operational — a Byzantine process floods forged blocks and correct
//     replicas (whose update path validates P) stay clean;
//   - ExtensionSolvability: the conclusion's "solvability of Eventual
//     Prefix in message-passing" — the flooding protocol empirically
//     provides EC under all three synchrony models as long as LRC holds.

// ExtensionMPC classifies the PoW and consensus families against MPC.
func ExtensionMPC(seed uint64) *Result {
	res := &Result{ID: "Extension MPC", Title: "Monotonic Prefix Consistency ([20]) vs SC/EC", OK: true}

	bres, err := btsim.Run("bitcoin",
		btsim.WithN(4), btsim.WithRounds(300), btsim.WithSeed(seed),
		btsim.WithReadEvery(4), btsim.WithDifficulty(5))
	if err != nil {
		res.OK = false
		res.notef("bitcoin run failed: %v", err)
		return res
	}
	bmpc := bres.MonotonicPrefix()
	bsc, bec := bres.Check()
	res.addf("Bitcoin : %s ; %s ; %s", bsc, bec, bmpc)

	fres, err := btsim.Run("fabric",
		btsim.WithN(4), btsim.WithRounds(40), btsim.WithSeed(seed),
		btsim.WithReadEvery(8))
	if err != nil {
		res.OK = false
		res.notef("fabric run failed: %v", err)
		return res
	}
	fmpc := fres.MonotonicPrefix()
	fsc, fec := fres.Check()
	res.addf("Fabric  : %s ; %s ; %s", fsc, fec, fmpc)

	// Expected placement: the reorg-prone PoW run violates MPC (it
	// only promises EC); the k=1 chain satisfies MPC (reads only ever
	// extend).
	if bmpc.OK {
		res.notef("Bitcoin run had no observed reorg this seed (MPC unwitnessed)")
	}
	if !fmpc.OK {
		res.OK = false
		res.notef("fork-free chain violated MPC: %v", fmpc.Violations)
	}
	if !bec.OK || !fsc.OK {
		res.OK = false
		res.notef("base classifications regressed")
	}
	res.addf("placement: MPC sits between EC and SC on these runs, as [20] positions it")
	return res
}

// ExtensionFairness measures each miner's share of the selected chain
// against its merit share on a Bitcoin run with skewed hashing power.
func ExtensionFairness(seed uint64) *Result {
	res := &Result{ID: "Extension Fairness", Title: "chain share vs merit share (oracle fairness)", OK: true}
	const n = 4
	r, err := btsim.Run("bitcoin",
		btsim.WithN(n), btsim.WithRounds(600), btsim.WithSeed(seed),
		btsim.WithReadEvery(50), btsim.WithDifficulty(6),
		btsim.WithMerits(4, 2, 1, 1))
	if err != nil {
		res.OK = false
		res.notef("bitcoin run failed: %v", err)
		return res
	}

	chain := r.Chain(0)
	total := chain.Height()
	if total == 0 {
		res.OK = false
		res.notef("empty chain")
		return res
	}
	counts := make([]int, n)
	for _, b := range chain {
		if !b.IsGenesis() {
			counts[b.Creator]++
		}
	}
	meritShare := []float64{0.5, 0.25, 0.125, 0.125}
	maxDev := 0.0
	for p := 0; p < n; p++ {
		share := float64(counts[p]) / float64(total)
		dev := share - meritShare[p]
		if dev < 0 {
			dev = -dev
		}
		if dev > maxDev {
			maxDev = dev
		}
		res.addf("p%d: merit %.3f → chain share %.3f (%d/%d blocks)", p, meritShare[p], share, counts[p], total)
	}
	res.addf("max |share − merit| = %.3f over %d blocks", maxDev, total)
	if maxDev > 0.15 {
		res.OK = false
		res.notef("chain share deviates from merit share by %.3f (> 0.15)", maxDev)
	}
	return res
}

// ExtensionByzantineFlood floods forged blocks (payload tampered after
// hashing) from a Byzantine process; correct replicas must reject every
// one of them, and the history restricted to correct processes must
// still satisfy Block Validity and EC.
func ExtensionByzantineFlood(seed uint64) *Result {
	res := &Result{ID: "Extension Byzantine flood", Title: "forged blocks cannot corrupt correct replicas", OK: true}
	sim := simnet.NewSim(seed)
	g := replica.NewGroup(sim, 4, simnet.Synchronous{Delta: 2}, core.LongestChain{})
	g.SetPredicate(core.WellFormed{})
	g.Rec.MarkFaulty(3)

	// Honest chain growth by p0.
	parent := core.Genesis()
	for i := 0; i < 5; i++ {
		b := core.NewBlock(parent.ID, parent.Height+1, 0, i, []byte{byte(i)})
		parent = b
		tt := int64(i*10 + 1)
		sim.Schedule(tt, func() { g.Procs[0].AppendLocal(b) })
	}
	// Byzantine p3 floods forged blocks: valid-looking IDs with
	// tampered payloads, chained to genesis.
	for i := 0; i < 10; i++ {
		forged := core.NewBlock(core.GenesisID, 1, 3, 1000+i, []byte{byte(i)})
		forged.Payload = []byte("tampered") // ID no longer matches content
		tt := int64(i*5 + 2)
		sim.Schedule(tt, func() {
			g.Nets()[3].Broadcast(replica.UpdateMsg{Parent: forged.Parent, Block: forged})
		})
	}
	sim.RunUntilIdle()
	for _, p := range g.Procs[:3] {
		p.Read()
	}
	for _, p := range g.Procs[:3] {
		p.Read()
	}

	rejected := 0
	for _, p := range g.Procs[:3] {
		rejected += p.RejectedCount()
		if p.Tree().Len() != 6 { // genesis + 5 honest blocks
			res.OK = false
			res.notef("correct replica %d holds %d blocks, want 6", p.ID, p.Tree().Len())
		}
	}
	res.addf("10 forged blocks flooded; correct replicas rejected %d deliveries", rejected)
	if rejected == 0 {
		res.OK = false
		res.notef("no forged block ever reached a correct replica's filter")
	}

	h := g.History()
	chk := consistency.NewChecker(core.LengthScore{}, core.WellFormed{})
	bv := chk.BlockValidity(h)
	sc, ec := chk.Classify(h)
	res.addf("%s ; %s ; %s", bv, sc, ec)
	if !bv.OK || !ec.OK {
		res.OK = false
		res.notef("correct-process history corrupted by the flood")
	}
	return res
}

// ExtensionSolvability runs the flooding replica protocol under the
// three synchrony models with no loss: Eventual Consistency holds in
// every one, supporting the conjecture that LRC (not timing) is the
// operative requirement for Eventual Prefix — the paper's first listed
// open problem.
func ExtensionSolvability(seed uint64) *Result {
	res := &Result{ID: "Extension Solvability", Title: "Eventual Prefix under sync/psync/async delivery", OK: true}
	models := []simnet.DelayModel{
		simnet.Synchronous{Delta: 3},
		simnet.PartialSynchrony{GST: 60, DeltaBefore: 25, DeltaAfter: 3},
		simnet.Asynchronous{P: 0.25},
	}
	for _, m := range models {
		sim := simnet.NewSim(seed)
		g := replica.NewGroup(sim, 4, m, core.LongestChain{})
		g.SetPredicate(core.WellFormed{})
		// Each process appends on its own selected head on a
		// staggered schedule; forks can and do happen under slow
		// delivery.
		for i := 0; i < 24; i++ {
			p := i % 4
			round := i
			tt := int64(i*7 + 1)
			sim.Schedule(tt, func() {
				head := g.Procs[p].SelectedHead()
				b := core.NewBlock(head.ID, head.Height+1, p, round, []byte{byte(round)})
				g.Procs[p].AppendLocal(b)
			})
			if i%3 == 0 {
				sim.Schedule(tt+2, func() { g.Procs[(p+1)%4].Read() })
			}
		}
		sim.RunUntilIdle()
		g.ReadAll()
		g.ReadAll()
		h := g.History()
		chk := consistency.NewChecker(core.LengthScore{}, core.WellFormed{})
		_, ec := chk.Classify(h)
		ua := consistency.UpdateAgreement(h)
		res.addf("%-22s %s ; %s", m.Name(), ec, ua)
		if !ec.OK || !ua.OK {
			res.OK = false
			res.notef("%s: EC or Update Agreement failed without loss", m.Name())
		}
	}
	res.addf("EC holds under all three timing models when no message is lost")
	return res
}
