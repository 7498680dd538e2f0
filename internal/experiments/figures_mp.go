package experiments

import (
	"repro/btsim"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/oracle"
	"repro/internal/replica"
	"repro/internal/simnet"
)

// Figure13 reproduces the Update Agreement history of Figure 13: three
// processes; process i performs send_i(b_g, b) and update_i(b_g, b); j
// and k receive and update. The recorded event pattern must satisfy R1,
// R2, R3 and the LRC properties.
func Figure13(seed uint64) *Result {
	res := &Result{ID: "Figure 13", Title: "Update Agreement history", OK: true}
	sim := simnet.NewSim(seed)
	group := replica.NewGroup(sim, 3, simnet.Synchronous{Delta: 3}, core.LongestChain{})

	b := core.NewBlock(core.GenesisID, 1, 0, 1, []byte("fig13"))
	sim.Schedule(1, func() { group.Procs[0].AppendLocal(b) })
	sim.RunUntilIdle()

	h := group.History()
	for e := range h.Events() {
		res.addf("%s", e)
	}
	ua := consistency.UpdateAgreement(h)
	lrc := consistency.LRC(h)
	res.addf("%s", ua)
	res.addf("%s", lrc)
	if !ua.OK || !lrc.OK {
		res.OK = false
		res.notef("lossless flooding must satisfy Update Agreement and LRC")
	}
	// Structure check: one send by i, a receive at every process, an
	// update at every process.
	if got := len(h.CommOf(history.EvSend)); got != 1 {
		res.OK = false
		res.notef("want 1 send event, got %d", got)
	}
	if got := len(h.CommOf(history.EvReceive)); got != 3 {
		res.OK = false
		res.notef("want 3 receive events, got %d", got)
	}
	if got := len(h.CommOf(history.EvUpdate)); got != 3 {
		res.OK = false
		res.notef("want 3 update events, got %d", got)
	}
	return res
}

// TheoremLRC is the executable content of Lemmas 4.4/4.5 and Theorems
// 4.6/4.7: in a Bitcoin-style run where a single update message from a
// correct process is dropped (the first flood message addressed to
// process 2), the Update Agreement property R3 fails and the history
// violates BT Eventual Consistency; the identical run without the drop
// satisfies both. The run concentrates the hashing power on process 0
// (as in the paper's proof construction, where the adversarial schedule
// makes the lost update load-bearing): the dropped block is then on the
// unique growing chain, so process 2 — whose replica buffers every
// descendant of the missing block — can never adopt any later block.
func TheoremLRC(seed uint64) *Result {
	res := &Result{ID: "Theorem 4.6/4.7", Title: "one dropped message breaks Eventual Prefix", OK: true}

	base := []btsim.Option{
		btsim.WithN(4), btsim.WithRounds(120), btsim.WithSeed(seed),
		btsim.WithReadEvery(15), btsim.WithDifficulty(10),
		btsim.WithMerits(1, 0, 0, 0), // single miner: a linear chain
	}

	clean, err := btsim.Run("bitcoin", base...)
	if err != nil {
		res.OK = false
		res.notef("bitcoin run failed: %v", err)
		return res
	}
	_, ecClean := clean.Check()
	uaClean := clean.UpdateAgreement()
	res.addf("lossless run: %s ; %s", ecClean, uaClean)

	broken, err := btsim.Run("bitcoin", append(base, btsim.WithDropNth(0, 2))...)
	if err != nil {
		res.OK = false
		res.notef("lossy bitcoin run failed: %v", err)
		return res
	}
	_, ec := broken.Check()
	ua := broken.UpdateAgreement()
	lrc := broken.LRC()
	res.addf("one message to p2 dropped: %s ; %s ; %s", ec, ua, lrc)
	res.addf("final heights: clean=%v lossy=%v", clean.FinalHeights(), broken.FinalHeights())

	if !ecClean.OK || !uaClean.OK {
		res.OK = false
		res.notef("lossless run must satisfy EC and Update Agreement")
	}
	if ec.OK {
		res.OK = false
		res.notef("lossy run must violate EC (Theorem 4.6)")
	}
	if ua.OK || lrc.OK {
		res.OK = false
		res.notef("lossy run must violate Update Agreement and LRC")
	}
	return res
}

// Theorem48 is the executable content of Theorem 4.8: with any oracle
// allowing forks (here ΘF,k=2), two correct processes that append
// concurrently at time t0 and read before t0+δ return incomparable
// chains — Strong Prefix is violated even in a fault-free synchronous
// run using an LRC-satisfying flood.
func Theorem48(seed uint64) *Result {
	res := &Result{ID: "Theorem 4.8", Title: "Strong Prefix impossible with forks", OK: true}
	const delta = 8
	sim := simnet.NewSim(seed)
	group := replica.NewGroup(sim, 2, simnet.Synchronous{Delta: delta}, core.LongestChain{})

	// Both processes hold a validated block for b0 (a k=2 oracle
	// grants and consumes both tokens) and append at t0 = 1.
	g := core.Genesis()
	mk := func(proc int) *core.Block {
		b := core.NewBlock(g.ID, 1, proc, 1, []byte{byte(proc)})
		return b.WithToken(oracle.TokenName(g.ID))
	}
	b1, b2 := mk(0), mk(1)
	sim.Schedule(1, func() {
		group.Procs[0].AppendLocal(b1)
		group.Procs[1].AppendLocal(b2)
	})
	// Reads strictly before t0 + δ: each process still only sees its
	// own block.
	sim.Schedule(2, group.ReadAll)
	sim.RunUntilIdle()
	// Post-convergence reads (both replicas now hold both blocks and
	// the deterministic selector agrees).
	group.ReadAll()

	h := group.History()
	chk := consistency.NewChecker(core.LengthScore{}, nil)
	sp := chk.StrongPrefix(h)
	lrc := consistency.LRC(h)
	res.addf("reads at t < t0+δ: p0=%s, p1=%s", h.Reads()[0].Chain(), h.Reads()[1].Chain())
	res.addf("%s", sp)
	res.addf("%s (the channel abstraction is not at fault)", lrc)
	if sp.OK {
		res.OK = false
		res.notef("Strong Prefix must be violated by the concurrent fork")
	}
	if !lrc.OK {
		res.OK = false
		res.notef("LRC must hold — the violation is inherent to forks, not to the channels")
	}
	kf := chk.KForkCoherence(h, 2)
	k1 := chk.KForkCoherence(h, 1)
	res.addf("%s ; %s", kf, k1)
	if !kf.OK || k1.OK {
		res.OK = false
		res.notef("the run is 2-fork coherent but not 1-fork coherent")
	}
	return res
}
