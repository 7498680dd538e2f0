package replica

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/simnet"
)

// transientDrop drops messages matching inner only while now < until.
func transientDrop(sim *simnet.Sim, until int64, inner simnet.DropRule) simnet.DropRule {
	return func(m simnet.Message) bool {
		return sim.Now() < until && inner(m)
	}
}

func TestAntiEntropyHealsPartition(t *testing.T) {
	sim := simnet.NewSim(1)
	g := NewGroup(sim, 4, simnet.Synchronous{Delta: 2}, core.LongestChain{})
	g.SetPredicate(core.WellFormed{})
	// Process 3 is partitioned off for the first 60 time units.
	g.Net.SetDrop(transientDrop(sim, 60, simnet.DropToProcess(3)))

	parent := core.Genesis()
	for i := 0; i < 8; i++ {
		b := mkBlock(parent, 0, i)
		parent = b
		tt := int64(i*7 + 1)
		sim.Schedule(tt, func() { g.Procs[0].AppendLocal(b) })
	}
	// Anti-entropy every 20 units for 10 rounds (well past healing).
	g.EnableAntiEntropy(20, 10)
	sim.RunUntilIdle()

	if got := g.Procs[3].Tree().Len(); got != 9 {
		t.Fatalf("partitioned replica repaired to %d blocks, want 9", got)
	}
	if g.Procs[3].PendingCount() != 0 {
		t.Fatal("orphans left after repair")
	}
}

func TestWithoutAntiEntropyPartitionIsPermanent(t *testing.T) {
	sim := simnet.NewSim(1)
	g := NewGroup(sim, 4, simnet.Synchronous{Delta: 2}, core.LongestChain{})
	g.Net.SetDrop(transientDrop(sim, 60, simnet.DropToProcess(3)))
	parent := core.Genesis()
	for i := 0; i < 8; i++ {
		b := mkBlock(parent, 0, i)
		parent = b
		tt := int64(i*7 + 1)
		sim.Schedule(tt, func() { g.Procs[0].AppendLocal(b) })
	}
	sim.RunUntilIdle()
	// All appends happened before the partition healed: without
	// repair, process 3 never recovers the lost blocks.
	if got := g.Procs[3].Tree().Len(); got != 1 {
		t.Fatalf("replica has %d blocks without repair, want 1", got)
	}
}

func TestAntiEntropyRestoresEventualConsistency(t *testing.T) {
	run := func(repair bool) *consistency.Verdict {
		sim := simnet.NewSim(5)
		g := NewGroup(sim, 3, simnet.Synchronous{Delta: 2}, core.LongestChain{})
		g.SetPredicate(core.WellFormed{})
		g.Net.SetDrop(transientDrop(sim, 40, simnet.DropToProcess(2)))

		parent := core.Genesis()
		for i := 0; i < 6; i++ {
			b := mkBlock(parent, 0, i)
			parent = b
			tt := int64(i*6 + 1)
			sim.Schedule(tt, func() { g.Procs[0].AppendLocal(b) })
			sim.Schedule(tt+2, func() {
				for _, p := range g.Procs {
					p.Read()
				}
			})
		}
		if repair {
			g.EnableAntiEntropy(15, 8)
		}
		sim.RunUntilIdle()
		for _, p := range g.Procs {
			p.Read()
		}
		for _, p := range g.Procs {
			p.Read()
		}
		chk := consistency.NewChecker(core.LengthScore{}, core.WellFormed{})
		_, ec := chk.Classify(g.History())
		return ec
	}
	if ec := run(false); ec.OK {
		t.Fatal("EC held through an unrepaired partition")
	}
	if ec := run(true); !ec.OK {
		t.Fatalf("EC still violated with anti-entropy: %v", ec.Failing())
	}
}

func TestAntiEntropyIdleIsCheap(t *testing.T) {
	// With nothing missing, inventory rounds generate no update
	// traffic (only the inv broadcasts themselves).
	sim := simnet.NewSim(9)
	g := NewGroup(sim, 3, simnet.Synchronous{Delta: 2}, core.LongestChain{})
	b := mkBlock(core.Genesis(), 0, 1)
	sim.Schedule(1, func() { g.Procs[0].AppendLocal(b) })
	sim.Run(20) // flood settles
	sentBefore, _, _ := g.Net.Stats()
	g.EnableAntiEntropy(10, 3)
	sim.RunUntilIdle()
	sentAfter, _, _ := g.Net.Stats()
	// 3 rounds × 3 processes × 3 destinations = 27 inv messages, and
	// nothing else.
	if extra := sentAfter - sentBefore; extra != 27 {
		t.Fatalf("idle anti-entropy sent %d messages, want 27", extra)
	}
}

func TestAntiEntropyRandomLossSoak(t *testing.T) {
	// 10% i.i.d. loss on every link, continuous appends, repair on:
	// all replicas converge to the full tree.
	sim := simnet.NewSim(13)
	g := NewGroup(sim, 4, simnet.Synchronous{Delta: 2}, core.LongestChain{})
	g.SetPredicate(core.WellFormed{})
	rng := sim.RNG().Split()
	g.Net.SetDrop(func(simnet.Message) bool { return rng.Bernoulli(0.10) })

	for i := 0; i < 20; i++ {
		p := i % 4
		round := i
		tt := int64(i*9 + 1)
		sim.Schedule(tt, func() {
			head := g.Procs[p].SelectedHead()
			b := core.NewBlock(head.ID, head.Height+1, p, round, []byte{byte(round)})
			g.Procs[p].AppendLocal(b)
		})
	}
	g.EnableAntiEntropy(12, 40)
	sim.RunUntilIdle()

	want := g.Procs[0].Tree().Len()
	for _, p := range g.Procs {
		if p.Tree().Len() != want {
			t.Fatalf("replica %d has %d blocks, replica 0 has %d — no convergence under loss",
				p.ID, p.Tree().Len(), want)
		}
		if p.PendingCount() != 0 {
			t.Fatalf("replica %d still has orphans", p.ID)
		}
	}
}
