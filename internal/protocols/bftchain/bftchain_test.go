package bftchain

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/tape"
)

func defaultCfg(seed uint64) Config {
	var c Config
	c.N = 4
	c.Rounds = 20
	c.Seed = seed
	c.ReadEvery = 10
	c.System = "test-chain"
	return c
}

func TestChainGrowsForkFree(t *testing.T) {
	res := Run(defaultCfg(1))
	if res.MeasuredForkMax > 1 {
		t.Fatalf("fork degree %d under k=1", res.MeasuredForkMax)
	}
	hs := res.FinalHeights()
	if hs[0] != hs[len(hs)-1] {
		t.Fatalf("replicas diverge: %v", hs)
	}
	if hs[0] != 20 {
		t.Fatalf("final height %d, want 20 (one block per round)", hs[0])
	}
}

func TestStronglyConsistent(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		res := Run(defaultCfg(seed))
		chk := consistency.NewChecker(res.Score, core.WellFormed{})
		sc, ec := chk.Classify(res.History)
		if !sc.OK {
			t.Fatalf("seed %d: SC violated: %v", seed, sc.Failing())
		}
		if !ec.OK {
			t.Fatalf("seed %d: EC violated: %v", seed, ec.Failing())
		}
		if rep := chk.KForkCoherence(res.History, 1); !rep.OK {
			t.Fatalf("seed %d: 1-fork coherence: %v", seed, rep.Violations)
		}
	}
}

func TestCrashedFollowerTolerated(t *testing.T) {
	cfg := defaultCfg(4)
	cfg.Rounds = 8
	cfg.Crashes = []simnet.CrashWindow{{Proc: 3, Start: 0, End: simnet.NoHeal}}
	res := Run(cfg)
	// The three live replicas reach the full height.
	live := 0
	for p, tr := range res.Trees {
		if p == 3 {
			continue
		}
		if res.Selector.Select(tr).Height() == 8 {
			live++
		}
	}
	if live != 3 {
		t.Fatalf("only %d live replicas completed", live)
	}
}

func TestCrashedLeaderRecoveredByViewChange(t *testing.T) {
	cfg := defaultCfg(5)
	cfg.Rounds = 6
	// Fixed leader policy pointing at a crashed process for height 0,
	// view 0; the view change must rotate past it.
	cfg.Crashes = []simnet.CrashWindow{{Proc: 0, Start: 0, End: simnet.NoHeal}}
	cfg.LeaderFn = func(h, v int) int { return (h + v) % 4 }
	res := Run(cfg)
	hs := res.FinalHeights()
	if hs[len(hs)-1] != 6 {
		t.Fatalf("chain stalled at %v with a crashed initial leader", hs)
	}
	// Height 0's block must come from the view-1 leader, not p0.
	c := res.Selector.Select(res.Trees[1])
	if c.Block(1).Creator == 0 {
		t.Fatal("crashed leader authored a block")
	}
}

func TestMeritGatekeeping(t *testing.T) {
	cfg := defaultCfg(6)
	cfg.Rounds = 6
	// Only processes 0 and 1 may propose.
	cfg.MeritOf = func(p int) tape.Merit {
		if p < 2 {
			return 0.5
		}
		return 0
	}
	cfg.LeaderFn = func(h, v int) int { return (h + v) % 2 }
	res := Run(cfg)
	c := res.Selector.Select(res.Trees[0])
	for _, b := range c {
		if !b.IsGenesis() && b.Creator >= 2 {
			t.Fatalf("merit-0 process %d authored a block", b.Creator)
		}
	}
	if c.Height() != 6 {
		t.Fatalf("height %d", c.Height())
	}
}

func TestResultMetadata(t *testing.T) {
	res := Run(defaultCfg(7))
	if res.OracleClaim != "ΘF,k=1" || res.PaperCriterion != "SC" {
		t.Fatalf("claims wrong: %+v", res)
	}
	if res.Stats["decisions"] == 0 || res.Stats["consumed"] == 0 {
		t.Fatalf("stats empty: %v", res.Stats)
	}
	// Exactly one token consumed per height.
	if res.Stats["consumed"] != 20 {
		t.Fatalf("consumed %d tokens for 20 heights", res.Stats["consumed"])
	}
}

func TestDeterminism(t *testing.T) {
	a, b := Run(defaultCfg(8)), Run(defaultCfg(8))
	ca := a.Selector.Select(a.Trees[0])
	cb := b.Selector.Select(b.Trees[0])
	if !ca.Equal(cb) {
		t.Fatal("same seed, different chain")
	}
}
