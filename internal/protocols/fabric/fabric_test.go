package fabric

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
)

func defaultCfg(seed uint64) Config {
	var c Config
	c.N = 4
	c.Rounds = 40 // 40 client submissions
	c.Seed = seed
	c.ReadEvery = 10
	return c
}

func TestBlocksCutAndDelivered(t *testing.T) {
	res := Run(defaultCfg(1))
	if res.Stats["blocks"] == 0 {
		t.Fatalf("no blocks cut: %v", res.Stats)
	}
	if res.Stats["submitted"] == 0 || res.Stats["endorsements"] == 0 || res.Stats["ordered"] == 0 {
		t.Fatalf("pipeline stats empty: %v", res.Stats)
	}
	hs := res.FinalHeights()
	if hs[0] != hs[len(hs)-1] || hs[0] == 0 {
		t.Fatalf("heights %v", hs)
	}
}

func TestBothStopConditionsFire(t *testing.T) {
	// On the fixed pipeline most blocks fill to maxTxPerBlock, and one
	// batch at this seed ages out of the maxBatchDelay window first.
	cfg := defaultCfg(2)
	cfg.Rounds = 41
	res := Run(cfg)
	if res.Stats["cut_size"] == 0 || res.Stats["cut_time"] == 0 {
		t.Fatalf("a stop condition never fired: %v", res.Stats)
	}
}

func TestForkFreeStrongConsistency(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		res := Run(defaultCfg(seed))
		if res.MeasuredForkMax > 1 {
			t.Fatalf("seed %d: ordering service forked", seed)
		}
		chk := consistency.NewChecker(res.Score, core.WellFormed{})
		sc, ec := chk.Classify(res.History)
		if !sc.OK || !ec.OK {
			t.Fatalf("seed %d: %s / %s", seed, sc, ec)
		}
		if rep := chk.KForkCoherence(res.History, 1); !rep.OK {
			t.Fatalf("seed %d: k=1: %v", seed, rep.Violations)
		}
	}
}

func TestAllBlocksByOrderer(t *testing.T) {
	res := Run(defaultCfg(4))
	c := res.Selector.Select(res.Trees[0])
	for _, b := range c {
		if !b.IsGenesis() && b.Creator != 0 {
			t.Fatalf("block by %d, want the ordering service (0)", b.Creator)
		}
	}
}

func TestBlockPayloadsAreTxBatches(t *testing.T) {
	res := Run(defaultCfg(5))
	c := res.Selector.Select(res.Trees[1])
	for _, b := range c {
		if b.IsGenesis() {
			continue
		}
		txs, err := core.DecodeTxs(b.Payload)
		if err != nil {
			t.Fatalf("block %s payload: %v", b.ID.Short(), err)
		}
		if len(txs) == 0 {
			t.Fatalf("block %s empty", b.ID.Short())
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := Run(defaultCfg(6)), Run(defaultCfg(6))
	if a.Stats["blocks"] != b.Stats["blocks"] || a.Stats["ordered"] != b.Stats["ordered"] {
		t.Fatal("nondeterministic run")
	}
}
