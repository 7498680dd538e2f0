package experiments

import (
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/simnet"
)

// ExtensionAntiEntropy is the constructive counterpart of Theorems
// 4.6/4.7: those theorems prove the Light Reliable Communication
// abstraction necessary for BT Eventual Consistency; this experiment
// shows an inventory/repair (anti-entropy) layer implementing LRC on top
// of transiently lossy channels. The identical workload is run three
// ways: lossless (baseline), transient partition without repair (EC
// broken forever), and transient partition with repair (the partitioned
// replica catches up; EC and LRC restored).
func ExtensionAntiEntropy(seed uint64) *Result {
	res := &Result{ID: "Extension Anti-entropy", Title: "implementing LRC over transient loss", OK: true}

	run := func(partitionUntil int64, repair bool) (*consistency.Verdict, *consistency.Report, []int) {
		g := antiEntropyRun(seed, partitionUntil, repair)
		chk := consistency.NewChecker(core.LengthScore{}, core.WellFormed{})
		_, ec := chk.Classify(g.History())
		lrc := consistency.LRC(g.History())
		heights := make([]int, 4)
		for i, p := range g.Procs {
			heights[i] = p.Tree().Len() - 1
		}
		return ec, lrc, heights
	}

	base, baseLRC, hb := run(0, false)
	res.addf("lossless baseline       : %s ; %s ; heights %v", base, baseLRC, hb)
	broken, brokenLRC, hbr := run(45, false)
	res.addf("partition, no repair    : %s ; %s ; heights %v", broken, brokenLRC, hbr)
	healed, healedLRC, hh := run(45, true)
	res.addf("partition + anti-entropy: %s ; %s ; heights %v", healed, healedLRC, hh)

	if !base.OK || !baseLRC.OK {
		res.OK = false
		res.notef("baseline must satisfy EC and LRC")
	}
	if broken.OK || brokenLRC.OK {
		res.OK = false
		res.notef("unrepaired partition must violate EC and LRC (Thm 4.6/4.7)")
	}
	if !healed.OK || !healedLRC.OK {
		res.OK = false
		res.notef("anti-entropy must restore EC and LRC")
	}
	if hh[3] != hh[0] {
		res.OK = false
		res.notef("partitioned replica did not catch up: %v", hh)
	}
	res.addf("anti-entropy implements the LRC abstraction the paper proves necessary")
	return res
}

// antiEntropyRun is the experiment's workload: process 0 appends ten
// blocks over a synchronous network, everybody reads after each, and —
// with partitionUntil > 0 — process 3 receives nothing before that
// instant; repair turns the anti-entropy layer on.
func antiEntropyRun(seed uint64, partitionUntil int64, repair bool) *replica.Group {
	sim := simnet.NewSim(seed)
	g := replica.NewGroup(sim, 4, simnet.Synchronous{Delta: 2}, core.LongestChain{})
	g.SetPredicate(core.WellFormed{})
	if partitionUntil > 0 {
		g.Net.SetDrop(func(m simnet.Message) bool {
			return sim.Now() < partitionUntil && m.To == 3
		})
	}
	parent := core.Genesis()
	for i := 0; i < 10; i++ {
		b := core.NewBlock(parent.ID, parent.Height+1, 0, i, []byte{byte(i)})
		parent = b
		tt := int64(i*6 + 1)
		sim.Schedule(tt, func() { g.Procs[0].AppendLocal(b) })
		sim.Schedule(tt+2, g.ReadAll)
	}
	if repair {
		g.EnableAntiEntropy(15, 12)
	}
	sim.RunUntilIdle()
	g.ReadAll()
	g.ReadAll()
	return g
}
