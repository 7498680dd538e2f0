package peercensus

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/replica"
	"repro/internal/simnet"
)

func defaultCfg(seed uint64) protocols.Config {
	var c protocols.Config
	c.N = 4
	c.Rounds = 15
	c.Seed = seed
	c.ReadEvery = 10
	return c
}

func TestStronglyConsistent(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		res := Run(defaultCfg(seed))
		if res.System != "PeerCensus" {
			t.Fatalf("system %q", res.System)
		}
		if res.MeasuredForkMax > 1 {
			t.Fatalf("seed %d: forked", seed)
		}
		chk := consistency.NewChecker(res.Score, core.WellFormed{})
		sc, ec := chk.Classify(res.History)
		if !sc.OK || !ec.OK {
			t.Fatalf("seed %d: %s / %s", seed, sc, ec)
		}
		if rep := chk.KForkCoherence(res.History, 1); !rep.OK {
			t.Fatalf("seed %d: 1-fork coherence: %v", seed, rep.Violations)
		}
	}
}

func TestCommitteeAnchoring(t *testing.T) {
	// The leader of height h+1 is the creator of height h's block (no
	// view changes in a fault-free run): consecutive blocks share a
	// creator once a leader is established.
	res := Run(defaultCfg(3))
	c := res.Selector.Select(res.Trees[0])
	if c.Height() < 3 {
		t.Fatalf("height %d", c.Height())
	}
	for h := 2; h <= c.Height(); h++ {
		if c.Block(h).Creator != c.Block(h-1).Creator {
			t.Fatalf("height %d creator %d, previous %d — anchoring broken",
				h, c.Block(h).Creator, c.Block(h-1).Creator)
		}
	}
}

func TestFaultToleranceWithCrash(t *testing.T) {
	cfg := defaultCfg(4)
	cfg.Rounds = 6
	cfg.Crashes = []replica.CrashWindow{{Proc: 2, Start: 0, End: simnet.NoHeal}}
	res := Run(cfg)
	heights := res.FinalHeights()
	if heights[len(heights)-1] != 6 {
		t.Fatalf("stalled: %v", heights)
	}
}

func TestUpdateAgreement(t *testing.T) {
	res := Run(defaultCfg(5))
	if rep := consistency.UpdateAgreement(res.History); !rep.OK {
		t.Fatalf("update agreement: %v", rep.Violations)
	}
}
