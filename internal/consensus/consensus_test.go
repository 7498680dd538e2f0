package consensus

import (
	"testing"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/simnet"
)

// nets lists each process's port on nw, the way a simulated run hands
// its network to the engine.
func nets(nw *simnet.Network, n int) []replica.Net {
	out := make([]replica.Net, n)
	for i := range out {
		out[i] = nw.Port(i)
	}
	return out
}

// harness runs PBFT heights over n processes, the down ones crashed
// for good from the start (the network drops their sends and every
// delivery to them), and returns the decided blocks per process (nil
// where undecided).
func harness(t *testing.T, n int, behaviors map[int]Behavior, down []int, heights int) [][]*core.Block {
	t.Helper()
	sim := simnet.NewSim(42)
	nw := simnet.NewNetwork(sim, n, simnet.Synchronous{Delta: 2})
	for _, p := range down {
		nw.Port(p).SetDown(true)
	}
	decided := make([][]*core.Block, n)
	for i := range decided {
		decided[i] = make([]*core.Block, heights)
	}
	eng, err := NewEngine(nets(nw, n), Config{
		Timeout:   30,
		Behaviors: behaviors,
		Propose: func(proc, height int) *core.Block {
			return core.NewBlock(core.GenesisID, 1, proc, height, []byte{byte(proc), byte(height)})
		},
		OnDecide: func(proc, height int, b *core.Block) {
			decided[proc][height] = b
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < heights; h++ {
		for p := 0; p < n; p++ {
			eng.Start(p, h)
		}
	}
	sim.RunUntilIdle()
	return decided
}

func TestPBFTAllHonestDecide(t *testing.T) {
	decided := harness(t, 4, nil, nil, 1)
	for p := 0; p < 4; p++ {
		if decided[p][0] == nil {
			t.Fatalf("process %d undecided", p)
		}
		if decided[p][0].ID != decided[0][0].ID {
			t.Fatal("agreement violated")
		}
	}
	// Validity: the decided block is the height-0 leader's proposal.
	if decided[0][0].Creator != 0 {
		t.Fatalf("decided creator %d, want leader 0", decided[0][0].Creator)
	}
}

func TestPBFTMultipleHeights(t *testing.T) {
	decided := harness(t, 4, nil, nil, 5)
	for h := 0; h < 5; h++ {
		for p := 0; p < 4; p++ {
			if decided[p][h] == nil {
				t.Fatalf("p%d h%d undecided", p, h)
			}
			if decided[p][h].ID != decided[0][h].ID {
				t.Fatalf("disagreement at height %d", h)
			}
		}
		// Round-robin leaders propose their own blocks.
		if decided[0][h].Creator != h%4 {
			t.Fatalf("height %d decided creator %d", h, decided[0][h].Creator)
		}
	}
}

func TestPBFTCrashedLeaderViewChange(t *testing.T) {
	// Leader of height 0 is process 0; crash it. The view change must
	// elect process 1, whose proposal gets decided by the correct
	// processes.
	decided := harness(t, 4, nil, []int{0}, 1)
	for p := 1; p < 4; p++ {
		if decided[p][0] == nil {
			t.Fatalf("process %d undecided after view change", p)
		}
		if decided[p][0].Creator != 1 {
			t.Fatalf("decided creator %d, want view-1 leader 1", decided[p][0].Creator)
		}
	}
}

func TestPBFTCrashedFollowerStillDecides(t *testing.T) {
	decided := harness(t, 4, nil, []int{3}, 2)
	for h := 0; h < 2; h++ {
		for p := 0; p < 3; p++ {
			if decided[p][h] == nil {
				t.Fatalf("p%d h%d undecided with one crashed follower", p, h)
			}
		}
	}
}

func TestPBFTEquivocatingLeaderSafety(t *testing.T) {
	// The height-0 leader equivocates. Whatever happens (a view change
	// or one proposal winning), no two correct processes may decide
	// different blocks.
	decided := harness(t, 4, map[int]Behavior{0: EquivocatingLeader}, nil, 1)
	var ref *core.Block
	for p := 1; p < 4; p++ {
		if decided[p][0] == nil {
			continue
		}
		if ref == nil {
			ref = decided[p][0]
		} else if decided[p][0].ID != ref.ID {
			t.Fatalf("equivocation broke agreement: %s vs %s",
				decided[p][0].ID.Short(), ref.ID.Short())
		}
	}
	if ref == nil {
		t.Fatal("no correct process ever decided (liveness lost)")
	}
}

func TestPBFTTooManyFaults(t *testing.T) {
	// n=4 tolerates f=1; with 2 crashed processes the quorum of 3 is
	// unreachable: nobody must decide (safety preserved over liveness).
	decided := harness(t, 4, nil, []int{2, 3}, 1)
	for p := 0; p < 2; p++ {
		if decided[p][0] != nil {
			t.Fatalf("process %d decided without a quorum", p)
		}
	}
}

func TestEngineConfigValidation(t *testing.T) {
	nw := simnet.NewNetwork(simnet.NewSim(1), 4, nil)
	if _, err := NewEngine(nets(nw, 4), Config{}); err == nil {
		t.Fatal("missing Propose accepted")
	}
}

func TestLeaderFnOverride(t *testing.T) {
	sim := simnet.NewSim(9)
	nw := simnet.NewNetwork(sim, 4, simnet.Synchronous{Delta: 2})
	decided := make([]*core.Block, 4)
	eng, err := NewEngine(nets(nw, 4), Config{
		Timeout:  30,
		LeaderFn: func(h, v int) int { return 2 }, // fixed leader
		Propose: func(proc, height int) *core.Block {
			return core.NewBlock(core.GenesisID, 1, proc, height, []byte{byte(proc)})
		},
		OnDecide: func(proc, height int, b *core.Block) { decided[proc] = b },
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range decided {
		eng.Start(p, 0)
	}
	sim.RunUntilIdle()
	for p, b := range decided {
		if b == nil || b.Creator != 2 {
			t.Fatalf("p%d decided %v, want proposal by fixed leader 2", p, b)
		}
	}
}

func TestQuorumAndF(t *testing.T) {
	nw := simnet.NewNetwork(simnet.NewSim(1), 7, nil)
	eng, err := NewEngine(nets(nw, 7), Config{Propose: func(int, int) *core.Block { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if eng.f != 2 || eng.Quorum() != 5 {
		t.Fatalf("f=%d quorum=%d for n=7", eng.f, eng.Quorum())
	}
}

func TestTOBTotalOrder(t *testing.T) {
	sim := simnet.NewSim(17)
	nw := simnet.NewNetwork(sim, 4, simnet.Synchronous{Delta: 5})
	tob := NewTOB(nets(nw, 4), 0)
	delivered := make([][]any, 4)
	tob.OnDeliver = func(proc, seq int, payload any) {
		delivered[proc] = append(delivered[proc], payload)
	}
	for i := 0; i < 10; i++ {
		from := i % 4
		msg := i
		sim.Schedule(int64(i), func() { tob.Broadcast(from, msg) })
	}
	sim.RunUntilIdle()
	for p := 0; p < 4; p++ {
		if len(delivered[p]) != 10 {
			t.Fatalf("p%d delivered %d/10", p, len(delivered[p]))
		}
		for i := range delivered[p] {
			if delivered[p][i] != delivered[0][i] {
				t.Fatalf("total order violated at p%d index %d", p, i)
			}
		}
	}
	for _, nd := range tob.nodes {
		if nd.nextDlv != 10 {
			t.Fatalf("p%d is at sequence number %d at quiescence, want 10", nd.id, nd.nextDlv)
		}
	}
}

func TestTOBInOrderDespiteReordering(t *testing.T) {
	// Large delay spread: order messages arrive out of order, the
	// buffer must still deliver in sequence.
	sim := simnet.NewSim(23)
	nw := simnet.NewNetwork(sim, 3, simnet.Synchronous{Delta: 20})
	tob := NewTOB(nets(nw, 3), 0)
	var seqs []int
	tob.OnDeliver = func(proc, seq int, payload any) {
		if proc == 1 {
			seqs = append(seqs, seq)
		}
	}
	for i := 0; i < 20; i++ {
		msg := i
		tob.Broadcast(2, msg)
	}
	sim.RunUntilIdle()
	if len(seqs) != 20 {
		t.Fatalf("delivered %d", len(seqs))
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("sequence gap: %v", seqs)
		}
	}
}

func TestTOBSequencerAccessor(t *testing.T) {
	nw := simnet.NewNetwork(simnet.NewSim(1), 2, nil)
	if NewTOB(nets(nw, 2), 1).sequencer != 1 {
		t.Fatal("sequencer accessor")
	}
}
