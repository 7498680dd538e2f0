package replica

import (
	"fmt"
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/simnet"
)

func mkBlock(parent *core.Block, creator, round int) *core.Block {
	return core.NewBlock(parent.ID, parent.Height+1, creator, round, []byte{byte(round)})
}

func TestAppendLocalFloodsAndConverges(t *testing.T) {
	sim := simnet.NewSim(1)
	g := NewGroup(sim, 4, simnet.Synchronous{Delta: 3}, core.LongestChain{})
	b := mkBlock(core.Genesis(), 0, 1)
	sim.Schedule(1, func() { g.Procs[0].AppendLocal(b) })
	sim.RunUntilIdle()
	for p, proc := range g.Procs {
		if !proc.Tree().Has(b.ID) {
			t.Fatalf("process %d missing the block", p)
		}
	}
	h := g.History()
	if got := len(h.CommOf(history.EvSend)); got != 1 {
		t.Fatalf("%d sends", got)
	}
	if got := len(h.CommOf(history.EvReceive)); got != 4 {
		t.Fatalf("%d receives (loopback included)", got)
	}
	if got := len(h.CommOf(history.EvUpdate)); got != 4 {
		t.Fatalf("%d updates", got)
	}
}

func TestOutOfOrderDeliveryBuffered(t *testing.T) {
	// Child may arrive before parent under a wide delay spread; the
	// pending buffer must hold it and flush on the parent's arrival.
	sim := simnet.NewSim(7)
	g := NewGroup(sim, 3, simnet.Synchronous{Delta: 10}, core.LongestChain{})
	b1 := mkBlock(core.Genesis(), 0, 1)
	b2 := mkBlock(b1, 0, 2)
	b3 := mkBlock(b2, 0, 3)
	sim.Schedule(1, func() {
		g.Procs[0].AppendLocal(b1)
		g.Procs[0].AppendLocal(b2)
		g.Procs[0].AppendLocal(b3)
	})
	sim.RunUntilIdle()
	for p, proc := range g.Procs {
		if proc.Tree().Len() != 4 {
			t.Fatalf("process %d has %d blocks", p, proc.Tree().Len())
		}
		if proc.PendingCount() != 0 {
			t.Fatalf("process %d still buffering", p)
		}
	}
	// A delivery that attaches records its receive and update as one
	// step; an orphan's receive stands alone and its update follows
	// the parent's. Seed 7 delivers b2 before b1 at process 2, and b3,
	// b2, b1 in that order at process 1.
	type ev struct {
		kind  history.CommKind
		block core.BlockID
	}
	rcv, upd := history.EvReceive, history.EvUpdate
	want := map[int][]ev{
		1: {{rcv, b3.ID}, {rcv, b2.ID}, {rcv, b1.ID}, {upd, b1.ID}, {upd, b2.ID}, {upd, b3.ID}},
		2: {{rcv, b2.ID}, {rcv, b1.ID}, {upd, b1.ID}, {upd, b2.ID}, {rcv, b3.ID}, {upd, b3.ID}},
	}
	got := map[int][]ev{}
	for e := range g.History().Events() {
		got[e.Proc] = append(got[e.Proc], ev{e.Kind, e.Block})
	}
	for p, w := range want {
		if fmt.Sprint(got[p]) != fmt.Sprint(w) {
			t.Errorf("process %d recorded %v, want %v", p, got[p], w)
		}
	}
}

func TestAppendLocalRecordsAppendOp(t *testing.T) {
	sim := simnet.NewSim(2)
	g := NewGroup(sim, 2, nil, core.LongestChain{})
	b := mkBlock(core.Genesis(), 1, 1)
	ok := false
	sim.Schedule(1, func() { ok = g.Procs[1].AppendLocal(b) })
	sim.RunUntilIdle()
	if !ok {
		t.Fatal("append failed")
	}
	h := g.History()
	if len(h.Ops) != 1 || h.Ops[0].Kind != history.OpAppend || !h.Ops[0].OK || h.Ops[0].Proc != 1 || h.Ops[0].Block.ID != b.ID {
		t.Fatalf("append op wrong: %v", h.Ops)
	}
}

func TestDuplicateAppendRejected(t *testing.T) {
	sim := simnet.NewSim(3)
	g := NewGroup(sim, 2, nil, core.LongestChain{})
	b := mkBlock(core.Genesis(), 0, 1)
	var first, second bool
	sim.Schedule(1, func() {
		first = g.Procs[0].AppendLocal(b)
		second = g.Procs[0].AppendLocal(b)
	})
	sim.RunUntilIdle()
	if !first || second {
		t.Fatalf("first=%v second=%v", first, second)
	}
	// Only one send despite the duplicate attempt.
	if got := len(g.History().CommOf(history.EvSend)); got != 1 {
		t.Fatalf("%d sends", got)
	}
}

func TestReadRecordsOperation(t *testing.T) {
	sim := simnet.NewSim(4)
	g := NewGroup(sim, 2, nil, core.LongestChain{})
	b := mkBlock(core.Genesis(), 0, 1)
	sim.Schedule(1, func() { g.Procs[0].AppendLocal(b) })
	sim.Schedule(50, func() {
		op := g.Procs[1].Read()
		if op.ChainLen != 2 {
			t.Errorf("read recorded chain length %d", op.ChainLen)
		}
	})
	sim.RunUntilIdle()
	reads := g.History().Reads()
	if len(reads) != 1 || reads[0].Proc != 1 || reads[0].Chain().Height() != 1 {
		t.Fatalf("read op wrong: %v", reads)
	}
}

func TestConcurrentForksBothRetained(t *testing.T) {
	sim := simnet.NewSim(5)
	g := NewGroup(sim, 2, simnet.Synchronous{Delta: 5}, core.LongestChain{})
	b1 := mkBlock(core.Genesis(), 0, 1)
	b2 := mkBlock(core.Genesis(), 1, 2)
	sim.Schedule(1, func() {
		g.Procs[0].AppendLocal(b1)
		g.Procs[1].AppendLocal(b2)
	})
	sim.RunUntilIdle()
	for p, proc := range g.Procs {
		tr := proc.Tree()
		if !tr.Has(b1.ID) || !tr.Has(b2.ID) {
			t.Fatalf("process %d missing a fork branch", p)
		}
		if n := len(tr.Children(core.GenesisID)); n != 2 {
			t.Fatalf("process %d fork count %d", p, n)
		}
	}
	// Deterministic selectors agree across replicas once converged.
	c0 := g.Procs[0].F.Select(g.Procs[0].Tree())
	c1 := g.Procs[1].F.Select(g.Procs[1].Tree())
	if !c0.Equal(c1) {
		t.Fatal("converged replicas select different chains")
	}
}

// TestApplyUpdateDoesNotRebroadcast: applying a block decided elsewhere
// records the update and sends nothing.
func TestApplyUpdateDoesNotRebroadcast(t *testing.T) {
	sim := simnet.NewSim(6)
	g := NewGroup(sim, 2, nil, core.SingleChain{})
	b := mkBlock(core.Genesis(), 0, 1)
	sim.Schedule(1, func() {
		if !g.Procs[1].applyUpdate(b) {
			t.Error("deliver failed")
		}
	})
	sim.RunUntilIdle()
	h := g.History()
	if len(h.CommOf(history.EvSend)) != 0 {
		t.Fatal("applyUpdate broadcast something")
	}
	if len(h.CommOf(history.EvUpdate)) != 1 {
		t.Fatal("update event missing")
	}
	if !g.Procs[1].Tree().Has(b.ID) {
		t.Fatal("block not attached")
	}
}

func TestOnCommitHook(t *testing.T) {
	sim := simnet.NewSim(7)
	g := NewGroup(sim, 2, nil, core.LongestChain{})
	var committed []*core.Block
	g.Procs[1].OnCommit = func(b *core.Block) { committed = append(committed, b) }
	b := mkBlock(core.Genesis(), 0, 1)
	sim.Schedule(1, func() { g.Procs[0].AppendLocal(b) })
	sim.RunUntilIdle()
	if len(committed) != 1 || committed[0].ID != b.ID {
		t.Fatalf("hook saw %v", committed)
	}
}

func TestDropToProcessLeavesItStuck(t *testing.T) {
	sim := simnet.NewSim(8)
	g := NewGroup(sim, 3, simnet.Synchronous{Delta: 2}, core.LongestChain{})
	g.Net.SetDrop(simnet.DropToProcess(2))
	b1 := mkBlock(core.Genesis(), 0, 1)
	b2 := mkBlock(b1, 0, 2)
	sim.Schedule(1, func() { g.Procs[0].AppendLocal(b1) })
	sim.Schedule(10, func() { g.Procs[0].AppendLocal(b2) })
	sim.RunUntilIdle()
	if g.Procs[2].Tree().Len() != 1 {
		t.Fatal("partitioned process received blocks")
	}
	if g.Procs[1].Tree().Len() != 3 {
		t.Fatal("connected process missed blocks")
	}
	// Update Agreement must be violated (R3).
	rep := consistency.UpdateAgreement(g.History())
	if rep.OK {
		t.Fatal("partition not detected by Update Agreement")
	}
}

func TestLosslessRunSatisfiesUpdateAgreementAndLRC(t *testing.T) {
	sim := simnet.NewSim(9)
	g := NewGroup(sim, 4, simnet.Synchronous{Delta: 4}, core.LongestChain{})
	parent := core.Genesis()
	for i := 0; i < 6; i++ {
		b := mkBlock(parent, i%4, i)
		parent = b
		p := i % 4
		tt := int64(i*10 + 1)
		sim.Schedule(tt, func() { g.Procs[p].AppendLocal(b) })
	}
	sim.RunUntilIdle()
	h := g.History()
	if rep := consistency.UpdateAgreement(h); !rep.OK {
		t.Fatalf("update agreement: %v", rep.Violations)
	}
	if rep := consistency.LRC(h); !rep.OK {
		t.Fatalf("LRC: %v", rep.Violations)
	}
}
