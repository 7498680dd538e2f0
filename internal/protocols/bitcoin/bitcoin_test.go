package bitcoin

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/simnet"
	"repro/internal/tape"
)

func defaultCfg(seed uint64) protocols.Config {
	var c protocols.Config
	c.N = 4
	c.Rounds = 150
	c.Seed = seed
	c.ReadEvery = 5
	c.Difficulty = 8
	return c
}

func TestRunProducesBlocks(t *testing.T) {
	res := Run(defaultCfg(1))
	if res.Stats["mined"] == 0 {
		t.Fatal("no blocks mined")
	}
	if res.System != "Bitcoin" || res.OracleClaim != "ΘP" || res.PaperCriterion != "EC" {
		t.Fatalf("result identity wrong: %+v", res)
	}
	if len(res.Trees) != 4 {
		t.Fatalf("%d trees", len(res.Trees))
	}
}

func TestReplicasConverge(t *testing.T) {
	res := Run(defaultCfg(2))
	hs := res.FinalHeights()
	if hs[0] != hs[len(hs)-1] {
		t.Fatalf("replicas did not converge: %v", hs)
	}
	// Every replica holds every mined block (lossless flooding).
	n := res.Trees[0].Len()
	for _, tr := range res.Trees {
		if tr.Len() != n {
			t.Fatalf("tree sizes differ: %d vs %d", tr.Len(), n)
		}
	}
}

func TestEventuallyConsistent(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		res := Run(defaultCfg(seed))
		chk := consistency.NewChecker(res.Score, core.WellFormed{})
		_, ec := chk.Classify(res.History)
		if !ec.OK {
			t.Fatalf("seed %d: EC violated: %v", seed, ec.Failing())
		}
	}
}

func TestUpdateAgreementHolds(t *testing.T) {
	res := Run(defaultCfg(4))
	rep := consistency.UpdateAgreement(res.History)
	if !rep.OK {
		t.Fatalf("update agreement: %v", rep.Violations)
	}
	if rep := consistency.LRC(res.History); !rep.OK {
		t.Fatalf("LRC: %v", rep.Violations)
	}
}

func TestBlockValidityUnderLedgerPredicate(t *testing.T) {
	res := Run(defaultCfg(5))
	chk := consistency.NewChecker(res.Score, core.LedgerPredicate{})
	if rep := chk.BlockValidity(res.History); !rep.OK {
		t.Fatalf("ledger-valid blocks rejected: %v", rep.Violations)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := Run(defaultCfg(7))
	b := Run(defaultCfg(7))
	if a.Stats["mined"] != b.Stats["mined"] {
		t.Fatal("same seed, different mining outcome")
	}
	ca := a.Selector.Select(a.Trees[0])
	cb := b.Selector.Select(b.Trees[0])
	if !ca.Equal(cb) {
		t.Fatal("same seed, different final chain")
	}
}

func TestHashingPowerSkewsBlockShare(t *testing.T) {
	cfg := defaultCfg(8)
	cfg.Rounds = 400
	cfg.Merits = []tape.Merit{8, 1, 1, 1} // process 0 has ~73% of power
	res := Run(cfg)
	chain := res.Selector.Select(res.Trees[0])
	mine := 0
	for _, b := range chain {
		if b.Creator == 0 {
			mine++
		}
	}
	share := float64(mine) / float64(chain.Height())
	if share < 0.5 {
		t.Fatalf("dominant miner produced only %.0f%% of the chain", share*100)
	}
}

func TestDroppedUpdateBreaksAgreement(t *testing.T) {
	cfg := defaultCfg(9)
	cfg.Merits = []tape.Merit{1, 0, 0, 0}
	cfg.Drop = simnet.DropNth(0, simnet.DropToProcess(3))
	res := Run(cfg)
	if rep := consistency.UpdateAgreement(res.History); rep.OK {
		t.Fatal("dropped update not detected")
	}
	chk := consistency.NewChecker(res.Score, core.WellFormed{})
	_, ec := chk.Classify(res.History)
	if ec.OK {
		t.Fatal("EC held despite the load-bearing dropped update")
	}
}

func TestStatsExposed(t *testing.T) {
	res := Run(defaultCfg(10))
	for _, key := range []string{"mined", "getToken", "grants", "consumed"} {
		if _, ok := res.Stats[key]; !ok {
			t.Errorf("missing stat %q", key)
		}
	}
	if res.Stats["grants"] < res.Stats["consumed"] {
		t.Fatal("more consumed than granted")
	}
}
