package byzcoin

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/tape"
)

func defaultCfg(seed uint64) Config {
	var c Config
	c.N = 4
	c.Rounds = 15
	c.Seed = seed
	c.ReadEvery = 10
	return c
}

func TestStronglyConsistentForkFree(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		res := Run(defaultCfg(seed))
		if res.System != "ByzCoin" || res.OracleClaim != "ΘF,k=1" {
			t.Fatalf("identity: %+v", res)
		}
		if res.MeasuredForkMax > 1 {
			t.Fatalf("seed %d: forked", seed)
		}
		chk := consistency.NewChecker(res.Score, core.WellFormed{})
		sc, ec := chk.Classify(res.History)
		if !sc.OK || !ec.OK {
			t.Fatalf("seed %d: %s / %s", seed, sc, ec)
		}
	}
}

func TestPoWWinnersLead(t *testing.T) {
	// With all hashing power at process 2, every key block must be
	// authored by process 2.
	cfg := defaultCfg(3)
	cfg.Rounds = 8
	cfg.Merits = []tape.Merit{0, 0, 1, 0}
	res := Run(cfg)
	c := res.Selector.Select(res.Trees[0])
	if c.Height() != 8 {
		t.Fatalf("height %d", c.Height())
	}
	for _, b := range c {
		if !b.IsGenesis() && b.Creator != 2 {
			t.Fatalf("block by %d despite p2 holding all power", b.Creator)
		}
	}
}

func TestByzantineLeaderDoesNotForkChain(t *testing.T) {
	cfg := defaultCfg(4)
	cfg.Rounds = 6
	cfg.Behaviors = map[int]consensus.Behavior{1: consensus.EquivocatingLeader}
	res := Run(cfg)
	if res.MeasuredForkMax > 1 {
		t.Fatal("equivocation forked the committed chain")
	}
	chk := consistency.NewChecker(res.Score, core.WellFormed{})
	if sc, _ := chk.Classify(res.History); !sc.OK {
		t.Fatalf("SC lost under equivocation: %v", sc.Failing())
	}
}

func TestProgressWithCrashedFollower(t *testing.T) {
	cfg := defaultCfg(5)
	cfg.Rounds = 6
	cfg.Crashes = []simnet.CrashWindow{{Proc: 3, Start: 0, End: simnet.NoHeal}}
	res := Run(cfg)
	if res.Selector.Select(res.Trees[0]).Height() != 6 {
		t.Fatal("chain stalled with one crashed follower")
	}
}
