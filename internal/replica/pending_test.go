package replica

import (
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/simnet"
)

// TestPendingBufferDedup pins the orphan-buffer deduplication: flood
// re-deliveries of a block whose parent has not arrived must buffer it
// once, not once per delivery.
func TestPendingBufferDedup(t *testing.T) {
	sim := simnet.NewSim(3)
	g := NewGroup(sim, 2, simnet.Synchronous{Delta: 1}, core.LongestChain{})
	p := g.Procs[1]

	b1 := core.NewBlock(core.GenesisID, 1, 0, 1, []byte{1})
	b2 := core.NewBlock(b1.ID, 2, 0, 2, []byte{2})

	// Five re-deliveries of the orphan b2 (parent b1 missing).
	for i := 0; i < 5; i++ {
		p.applyUpdate(b2)
	}
	if got := p.PendingCount(); got != 1 {
		t.Fatalf("orphan buffered %d times, want 1", got)
	}
	// Parent arrives: the orphan flushes exactly once.
	if !p.applyUpdate(b1) {
		t.Fatal("parent attach failed")
	}
	if p.PendingCount() != 0 {
		t.Fatalf("pending not drained: %d", p.PendingCount())
	}
	if p.Tree().Len() != 3 {
		t.Fatalf("tree has %d blocks, want 3", p.Tree().Len())
	}
	// Exactly one update event per block at this process.
	updates := 0
	for e := range g.Rec.Snapshot().Events() {
		if e.Kind == history.EvUpdate && e.Proc == 1 {
			updates++
		}
	}
	if updates != 2 {
		t.Fatalf("recorded %d update events, want 2", updates)
	}
}

// TestDeepChainIterativeFlush delivers a 30000-deep chain segment in
// reverse (every block before its parent): the entire segment buffers as
// orphans and must flush iteratively when the first block arrives — the
// recursive flush this replaces consumed a stack frame per block.
func TestDeepChainIterativeFlush(t *testing.T) {
	const depth = 30000
	sim := simnet.NewSim(7)
	g := NewGroup(sim, 1, nil, core.LongestChain{})
	p := g.Procs[0]

	chain := make([]*core.Block, depth)
	parent := core.Genesis()
	for i := range chain {
		chain[i] = core.NewBlock(parent.ID, parent.Height+1, 0, i, nil)
		parent = chain[i]
	}
	// Reverse delivery: everything orphans.
	for i := depth - 1; i > 0; i-- {
		p.applyUpdate(chain[i])
	}
	if got := p.PendingCount(); got != depth-1 {
		t.Fatalf("buffered %d orphans, want %d", got, depth-1)
	}
	// The missing root block arrives: the whole segment flushes.
	if !p.applyUpdate(chain[0]) {
		t.Fatal("root attach failed")
	}
	if p.PendingCount() != 0 {
		t.Fatalf("pending not drained: %d", p.PendingCount())
	}
	if got := p.Tree().Height(); got != depth {
		t.Fatalf("tree height %d, want %d", got, depth)
	}
}

// TestFlushPreservesDepthFirstOrder pins the flush order of the
// iterative worklist against the old recursion: a child's own buffered
// descendants flush before the child's next sibling.
func TestFlushPreservesDepthFirstOrder(t *testing.T) {
	sim := simnet.NewSim(11)
	g := NewGroup(sim, 1, nil, core.LongestChain{})
	p := g.Procs[0]

	root := core.NewBlock(core.GenesisID, 1, 0, 1, []byte{1})
	c1 := core.NewBlock(root.ID, 2, 0, 2, []byte{2})
	c2 := core.NewBlock(root.ID, 2, 0, 3, []byte{3})
	gc1 := core.NewBlock(c1.ID, 3, 0, 4, []byte{4})
	gc2 := core.NewBlock(c2.ID, 3, 0, 5, []byte{5})

	// Buffer in sibling order c1, c2, then their children.
	for _, b := range []*core.Block{c1, c2, gc1, gc2} {
		p.applyUpdate(b)
	}
	p.applyUpdate(root)

	var order []core.BlockID
	for e := range g.Rec.Snapshot().Events() {
		if e.Kind == history.EvUpdate {
			order = append(order, e.Block)
		}
	}
	want := []core.BlockID{root.ID, c1.ID, gc1.ID, c2.ID, gc2.ID}
	if len(order) != len(want) {
		t.Fatalf("recorded %d updates, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("update order[%d] = %s, want %s (depth-first)", i, order[i].Short(), want[i].Short())
		}
	}
}

// TestFloodedGenesisIsADuplicate pins that a flooded copy of b0 is
// treated like any block the replica already holds: it is not buffered
// as an orphan under the empty parent, and its re-delivery records
// nothing. (Only the sender's loopback delivery records a receive, as
// for every send.)
func TestFloodedGenesisIsADuplicate(t *testing.T) {
	for _, pred := range []core.Predicate{core.AlwaysValid{}, core.WellFormed{}} {
		t.Run(pred.Name(), func(t *testing.T) {
			sim := simnet.NewSim(5)
			g := NewGroup(sim, 3, simnet.Synchronous{Delta: 3}, core.LongestChain{})
			g.SetPredicate(pred)
			flood := func() { g.Net.Broadcast(0, UpdateMsg{Block: core.Genesis()}) }
			sim.Schedule(1, flood)
			sim.Schedule(20, flood)
			sim.RunUntilIdle()
			for i, p := range g.Procs {
				if p.PendingCount() != 0 {
					t.Fatalf("process %d buffers %d orphans, want 0", i, p.PendingCount())
				}
				if p.Tree().Len() != 1 {
					t.Fatalf("process %d tree has %d blocks, want genesis alone", i, p.Tree().Len())
				}
			}
			for e := range g.History().Events() {
				if e.Proc != 0 {
					t.Fatalf("non-sender recorded %v for a flooded genesis", e)
				}
			}
		})
	}
}

// TestNilBlockUpdateIsRejected: an UpdateMsg carrying no block — nothing
// a correct process sends — is dropped and counted as rejected at every
// receiver instead of stopping the run with a nil dereference.
func TestNilBlockUpdateIsRejected(t *testing.T) {
	sim := simnet.NewSim(5)
	g := NewGroup(sim, 4, simnet.Synchronous{Delta: 3}, core.LongestChain{})
	sim.Schedule(1, func() { g.Net.Broadcast(3, UpdateMsg{Parent: core.GenesisID}) })
	b := core.NewBlock(core.GenesisID, 1, 0, 1, nil)
	sim.Schedule(2, func() { g.Procs[0].AppendLocal(b) })
	sim.RunUntilIdle()
	for i, p := range g.Procs {
		if p.RejectedCount() != 1 {
			t.Errorf("process %d rejected %d messages, want 1", i, p.RejectedCount())
		}
		if !p.Tree().Has(b.ID) || p.Tree().Len() != 2 {
			t.Errorf("process %d did not go on to attach the honest block", i)
		}
	}
	for e := range g.History().Events() {
		if e.Block != b.ID {
			t.Errorf("%v recorded for a block-less update", e)
		}
	}
}

// TestTwinWithAnotherParent floods two copies of one block ID that name
// different parents — only a forger can make them, and AlwaysValid lets
// them through. Each replica keeps the copy it saw first, under the
// parent that copy names: a twin whose parent is missing waits as an
// orphan for that parent (never hung under the other copy's), a twin
// whose height does not follow its parent's is refused, and the run's
// block index keeps the first copy any replica attached. The outcome
// was the same before the replicas shared a block index.
func TestTwinWithAnotherParent(t *testing.T) {
	sim := simnet.NewSim(5)
	g := NewGroup(sim, 3, simnet.Synchronous{Delta: 1}, core.LongestChain{})
	p1 := core.NewBlock(core.GenesisID, 1, 0, 1, nil)
	p2 := core.NewBlock(core.GenesisID, 1, 1, 1, nil)
	x1 := &core.Block{ID: "x", Parent: p1.ID, Height: 2}
	x2 := &core.Block{ID: "x", Parent: p2.ID, Height: 2}
	tall := &core.Block{ID: "x", Parent: p1.ID, Height: 5}
	a, b, c := g.Procs[0], g.Procs[1], g.Procs[2]

	for _, blk := range []*core.Block{p1, p2, x1} {
		if !a.applyUpdate(blk) {
			t.Fatalf("a refused %s", blk.ID.Short())
		}
	}
	for _, blk := range []*core.Block{p1, p2, x2} {
		if !b.applyUpdate(blk) {
			t.Fatalf("b refused %s under the parent it names", blk.ID.Short())
		}
	}
	if ch := b.Tree().ChainTo("x"); len(ch) != 3 || ch[1] != p2 {
		t.Fatalf("b holds the twin as %v, want under %s", ch, p2.ID.Short())
	}
	if a.applyUpdate(x2) || b.applyUpdate(x1) {
		t.Fatal("a second copy of an attached ID was applied")
	}

	c.applyUpdate(p1)
	if c.applyUpdate(tall) || c.Tree().Has("x") {
		t.Fatal("c attached a copy whose height does not follow its parent's")
	}
	if c.applyUpdate(x2) || c.Tree().Has("x") || c.PendingCount() != 1 {
		t.Fatalf("c: twin with a missing parent must wait as an orphan (has x: %v, pending %d)", c.Tree().Has("x"), c.PendingCount())
	}
	if !c.applyUpdate(p2) || c.PendingCount() != 0 {
		t.Fatal("c: the orphan did not flush when its parent arrived")
	}
	if ch := c.Tree().ChainTo("x"); len(ch) != 3 || ch[1] != p2 {
		t.Fatalf("c holds the twin as %v, want under %s", ch, p2.ID.Short())
	}
	if got := g.Rec.Table().ChainTo("x"); len(got) != 3 || got[1] != p1 {
		t.Fatalf("block index reads %v for x, want the first copy attached (under %s)", got, p1.ID.Short())
	}
}
