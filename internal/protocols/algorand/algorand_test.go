package algorand

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/tape"
)

func defaultCfg(seed uint64) protocols.Config {
	var c protocols.Config
	c.N = 5
	c.Rounds = 25
	c.Seed = seed
	c.ReadEvery = 10
	return c
}

func TestRoundsCommitBlocks(t *testing.T) {
	res := Run(defaultCfg(1))
	if res.Stats["proposals"] == 0 || res.Stats["committed"] == 0 {
		t.Fatalf("stats %v", res.Stats)
	}
	hs := res.FinalHeights()
	if hs[0] != hs[len(hs)-1] {
		t.Fatalf("replicas diverge: %v", hs)
	}
	if hs[0] == 0 {
		t.Fatal("no blocks committed")
	}
}

func TestForkFreeByDefault(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		res := Run(defaultCfg(seed))
		if res.MeasuredForkMax > 1 {
			t.Fatalf("seed %d: fork degree %d", seed, res.MeasuredForkMax)
		}
		chk := consistency.NewChecker(res.Score, core.WellFormed{})
		sc, _ := chk.Classify(res.History)
		if !sc.OK {
			t.Fatalf("seed %d: SC violated: %v", seed, sc.Failing())
		}
		if rep := chk.KForkCoherence(res.History, 1); !rep.OK {
			t.Fatalf("seed %d: k=1 coherence: %v", seed, rep.Violations)
		}
	}
}

func TestStakeWeightedProposers(t *testing.T) {
	cfg := defaultCfg(5)
	cfg.Rounds = 80
	cfg.Merits = []tape.Merit{10, 1, 1, 1, 1} // p0 holds ~71% of stake
	res := Run(cfg)
	chain := res.Selector.Select(res.Trees[0])
	rich := 0
	for _, b := range chain {
		if b.Creator == 0 {
			rich++
		}
	}
	if chain.Height() == 0 {
		t.Fatal("empty chain")
	}
	share := float64(rich) / float64(chain.Height())
	if share < 0.45 {
		t.Fatalf("richest staker proposed only %.0f%%", share*100)
	}
}

func TestCommitteeSizeDefault(t *testing.T) {
	res := Run(defaultCfg(6)) // must not panic and must make progress
	if res.FinalHeights()[0] == 0 {
		t.Fatal("no progress with default committee")
	}
}

func TestDeterminism(t *testing.T) {
	a, b := Run(defaultCfg(7)), Run(defaultCfg(7))
	if a.Stats["committed"] != b.Stats["committed"] {
		t.Fatal("nondeterministic commits")
	}
}
