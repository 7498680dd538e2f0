package bitcoin

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
)

func TestRetargetRaisesTooEasyDifficulty(t *testing.T) {
	// Start absurdly easy (difficulty 1 ⇒ ~1 block per process per
	// tick): retargeting must push the difficulty up.
	cfg := defaultCfg(21)
	cfg.Rounds = 400
	cfg.Difficulty = 1
	cfg.RetargetEvery = 20
	cfg.TargetSpacing = 8
	res := Run(cfg)
	if res.Stats["retargets"] == 0 {
		t.Fatalf("no retargets happened: %v", res.Stats)
	}
	if res.Stats["finalDifficultyPct"] <= 100 {
		t.Fatalf("difficulty did not rise from 1: final %d%%", res.Stats["finalDifficultyPct"])
	}
}

func TestRetargetLowersTooHardDifficulty(t *testing.T) {
	cfg := defaultCfg(22)
	cfg.Rounds = 600
	cfg.Difficulty = 60 // far too hard for spacing 4
	cfg.RetargetEvery = 5
	cfg.TargetSpacing = 4
	res := Run(cfg)
	if res.Stats["retargets"] == 0 {
		t.Skip("too few blocks to retarget at this seed")
	}
	if res.Stats["finalDifficultyPct"] >= 6000 {
		t.Fatalf("difficulty did not fall from 60: final %d%%", res.Stats["finalDifficultyPct"])
	}
}

func TestRetargetSpacingConverges(t *testing.T) {
	cfg := defaultCfg(23)
	cfg.Rounds = 1200
	cfg.Difficulty = 1
	cfg.RetargetEvery = 25
	cfg.TargetSpacing = 10
	res := Run(cfg)
	chain := res.Selector.Select(res.Trees[0])
	if chain.Height() < 40 {
		t.Fatalf("chain too short to measure spacing: %d", chain.Height())
	}
	// Average spacing over the last half of the chain must be within
	// 2× of the target (the first epochs are the adjustment phase).
	half := chain.Height() / 2
	first := chain.Block(half)
	last := chain.Head()
	spacing := float64(last.Round-first.Round) / float64(last.Height-first.Height)
	if spacing < float64(cfg.TargetSpacing)/2 || spacing > float64(cfg.TargetSpacing)*2 {
		t.Fatalf("late-chain spacing %.1f ticks, target %d", spacing, cfg.TargetSpacing)
	}
}

func TestRetargetPreservesEventualConsistency(t *testing.T) {
	cfg := defaultCfg(24)
	cfg.Rounds = 400
	cfg.Difficulty = 2
	cfg.RetargetEvery = 15
	res := Run(cfg)
	chk := consistency.NewChecker(res.Score, core.WellFormed{})
	_, ec := chk.Classify(res.History)
	if !ec.OK {
		t.Fatalf("EC violated under retargeting: %v", ec.Failing())
	}
	if rep := consistency.UpdateAgreement(res.History); !rep.OK {
		t.Fatalf("update agreement under retargeting: %v", rep.Violations)
	}
}
