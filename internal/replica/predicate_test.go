package replica

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/simnet"
)

func TestPredicateRejectsForgedBlocks(t *testing.T) {
	sim := simnet.NewSim(1)
	g := NewGroup(sim, 3, simnet.Synchronous{Delta: 2}, core.LongestChain{})
	g.SetPredicate(core.WellFormed{})

	honest := mkBlock(core.Genesis(), 0, 1)
	forged := mkBlock(core.Genesis(), 2, 2)
	forged.Payload = []byte("tampered after hashing")

	sim.Schedule(1, func() {
		g.Procs[0].AppendLocal(honest)
		g.Net.Broadcast(2, UpdateMsg{Parent: forged.Parent, Block: forged})
	})
	sim.RunUntilIdle()

	for p, proc := range g.Procs[:2] {
		if proc.Tree().Has(forged.ID) {
			t.Fatalf("replica %d accepted a forged block", p)
		}
		if !proc.Tree().Has(honest.ID) {
			t.Fatalf("replica %d missing the honest block", p)
		}
		if proc.RejectedCount() == 0 {
			t.Fatalf("replica %d rejected nothing", p)
		}
	}
	// A rejected delivery records its receive and no update.
	var receives, updates int
	for e := range g.History().Events() {
		if e.Block != forged.ID || e.Proc == 2 {
			continue
		}
		switch e.Kind {
		case history.EvReceive:
			receives++
		case history.EvUpdate:
			updates++
		}
	}
	if receives != 2 || updates != 0 {
		t.Fatalf("the forged block has %d receives and %d updates, want 2 and 0", receives, updates)
	}
}

func TestPredicateIgnoresTokenStamp(t *testing.T) {
	// Oracle-validated blocks carry a Token field that is not part of
	// the content hash; the replica predicate must not reject them.
	sim := simnet.NewSim(2)
	g := NewGroup(sim, 2, nil, core.LongestChain{})
	g.SetPredicate(core.WellFormed{})
	b := mkBlock(core.Genesis(), 0, 1).WithToken("tkn(b0)")
	sim.Schedule(1, func() {
		if !g.Procs[0].AppendLocal(b) {
			t.Error("token-stamped block rejected locally")
		}
	})
	sim.RunUntilIdle()
	if !g.Procs[1].Tree().Has(b.ID) {
		t.Fatal("token-stamped block rejected remotely")
	}
}

func TestDefaultPredicateAcceptsAnything(t *testing.T) {
	sim := simnet.NewSim(3)
	g := NewGroup(sim, 2, nil, core.LongestChain{})
	forged := mkBlock(core.Genesis(), 0, 1)
	forged.Payload = []byte("whatever")
	sim.Schedule(1, func() { g.Procs[0].AppendLocal(forged) })
	sim.RunUntilIdle()
	if !g.Procs[1].Tree().Has(forged.ID) {
		t.Fatal("default predicate rejected a block")
	}
	if g.Procs[1].RejectedCount() != 0 {
		t.Fatal("default predicate counted rejections")
	}
}

// TestValidityMemoCannotLaunderATwin: WellFormed remembers its verdict
// on the block object, so a Byzantine process that copies a validated
// block and alters the payload sends an object carrying the original's
// address. Every replica that does not hold the ID yet runs P on the
// twin and must refuse it — here all correct replicas but the creator,
// which withholds the honest block at first — and once the honest block
// is attached everywhere a second flood of the twin is a duplicate that
// changes no tree.
func TestValidityMemoCannotLaunderATwin(t *testing.T) {
	const n, creator, byz = 6, 1, 5
	sim := simnet.NewSim(11)
	g := NewGroup(sim, n, simnet.Synchronous{Delta: 2}, core.LongestChain{})
	g.SetPredicate(core.WellFormed{})
	first := mkBlock(core.Genesis(), 0, 1)
	honest := mkBlock(first, creator, 2)
	var twin *core.Block
	dumps := func() []string {
		out := make([]string, n)
		for i, p := range g.Procs {
			out[i] = treeDump(p.Tree())
		}
		return out
	}
	var beforeTwin, beforeSecondFlood []string

	sim.Schedule(1, func() { g.Procs[0].AppendLocal(first) })
	sim.Schedule(10, func() {
		g.Procs[creator].Mute = true
		if !g.Procs[creator].AppendLocal(honest) { // validated here: the verdict is on the object
			t.Error("creator refused its own block")
		}
		g.Procs[creator].Mute = false
		cp := *honest
		cp.Payload = []byte("pay the forger instead")
		twin = &cp
		beforeTwin = dumps()
		g.Net.Broadcast(byz, UpdateMsg{Parent: twin.Parent, Block: twin})
	})
	sim.Schedule(20, func() {
		for i, p := range g.Procs {
			want := 1
			if i == creator || i == byz {
				want = 0 // holds the ID already: a duplicate; the sender hears nothing
			}
			if p.RejectedCount() != want {
				t.Errorf("process %d rejected %d blocks after the twin's flood, want %d", i, p.RejectedCount(), want)
			}
		}
		if got := dumps(); !reflect.DeepEqual(got, beforeTwin) {
			t.Errorf("the twin's flood changed a tree:\n%v\n%v", beforeTwin, got)
		}
		g.Procs[creator].Publish(honest)
	})
	sim.Schedule(30, func() {
		beforeSecondFlood = dumps()
		g.Net.Broadcast(byz, UpdateMsg{Parent: twin.Parent, Block: twin})
	})
	sim.RunUntilIdle()

	if got := dumps(); !reflect.DeepEqual(got, beforeSecondFlood) {
		t.Error("the second flood of the twin changed a tree")
	}
	for i, p := range g.Procs {
		if p.Tree().Block(honest.ID) != honest || p.Tree().Len() != 3 {
			t.Errorf("process %d does not hold the honest copy (tree %v)", i, p.Tree())
		}
	}
	if g.Rec.Table().Block(honest.ID) != honest {
		t.Error("the chain table holds another copy of the honest block")
	}
	if (core.WellFormed{}).Valid(twin) {
		t.Error("the twin passes P after the run")
	}
}
