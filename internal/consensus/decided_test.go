package consensus

import (
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
)

func TestDecidedAccessor(t *testing.T) {
	sim := simnet.NewSim(31)
	nw := simnet.NewNetwork(sim, 4, simnet.Synchronous{Delta: 2})
	eng, err := NewEngine(nets(nw, 4), Config{
		Timeout: 30,
		Propose: func(proc, height int) *core.Block {
			return core.NewBlock(core.GenesisID, 1, proc, height, []byte{byte(height)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Decided(0, 0); ok {
		t.Fatal("decided before start")
	}
	for p := 0; p < 4; p++ {
		eng.Start(p, 0)
	}
	sim.RunUntilIdle()
	var ref *core.Block
	for p := 0; p < 4; p++ {
		b, ok := eng.Decided(p, 0)
		if !ok || b == nil {
			t.Fatalf("process %d not decided", p)
		}
		if ref == nil {
			ref = b
		} else if b.ID != ref.ID {
			t.Fatal("Decided disagrees across processes")
		}
	}
	if _, ok := eng.Decided(0, 5); ok {
		t.Fatal("unknown height reported decided")
	}
}

func TestEngineDefaultTimeoutAndMaxViews(t *testing.T) {
	nw := simnet.NewNetwork(simnet.NewSim(33), 4, nil)
	eng, err := NewEngine(nets(nw, 4), Config{
		Propose: func(int, int) *core.Block { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.cfg.Timeout != 50 || eng.cfg.MaxViews != 16 {
		t.Fatalf("defaults %d/%d", eng.cfg.Timeout, eng.cfg.MaxViews)
	}
}

func TestNilProposalStallsSafely(t *testing.T) {
	// A leader whose Propose returns nil (e.g. outside the consortium)
	// must not decide anything; the view change rotates onward and the
	// run terminates (MaxViews bound).
	sim := simnet.NewSim(35)
	nw := simnet.NewNetwork(sim, 4, simnet.Synchronous{Delta: 2})
	decided := 0
	eng, err := NewEngine(nets(nw, 4), Config{
		Timeout:  20,
		MaxViews: 3,
		Propose:  func(proc, height int) *core.Block { return nil },
		OnDecide: func(proc, height int, b *core.Block) { decided++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		eng.Start(p, 0)
	}
	sim.RunUntilIdle() // must terminate despite never deciding
	if decided != 0 {
		t.Fatalf("decided %d with nil proposals", decided)
	}
}
