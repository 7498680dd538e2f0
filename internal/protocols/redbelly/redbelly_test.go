package redbelly

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/protocols"
)

func defaultCfg(seed uint64) protocols.Config {
	var c protocols.Config
	c.N = 5
	c.Rounds = 12
	c.Seed = seed
	c.ReadEvery = 10
	return c
}

func TestConsortiumOnlyAppends(t *testing.T) {
	res := Run(defaultCfg(1))
	c := res.Selector.Select(res.Trees[0])
	if c.Height() != 12 {
		t.Fatalf("height %d", c.Height())
	}
	for _, b := range c {
		if !b.IsGenesis() && b.Creator >= 3 {
			t.Fatalf("non-consortium process %d appended", b.Creator)
		}
	}
	if res.Stats["consortium"] != 3 {
		t.Fatalf("consortium stat %d", res.Stats["consortium"])
	}
}

func TestUniqueBlockchain(t *testing.T) {
	res := Run(defaultCfg(2))
	for p, tr := range res.Trees {
		if tr.MaxForkDegree() > 1 {
			t.Fatalf("replica %d forked — Red Belly must hold a unique chain", p)
		}
	}
	if res.Selector.Name() != "single" {
		t.Fatalf("selector %s, want the trivial projection", res.Selector.Name())
	}
}

func TestStronglyConsistent(t *testing.T) {
	res := Run(defaultCfg(3))
	chk := consistency.NewChecker(res.Score, core.WellFormed{})
	sc, ec := chk.Classify(res.History)
	if !sc.OK || !ec.OK {
		t.Fatalf("%s / %s", sc, ec)
	}
}

func TestEveryoneReads(t *testing.T) {
	// Non-members cannot append but must read the same chain.
	res := Run(defaultCfg(4))
	reads := res.History.Reads()
	readers := map[int]bool{}
	for _, r := range reads {
		readers[r.Proc] = true
	}
	for p := 0; p < 5; p++ {
		if !readers[p] {
			t.Fatalf("process %d never read", p)
		}
	}
}

func TestDefaultM(t *testing.T) {
	var c protocols.Config
	c.N = 4
	c.Rounds = 4
	c.Seed = 5
	res := Run(c)
	if res.Stats["consortium"] != 3 { // N/2+1
		t.Fatalf("default consortium %d", res.Stats["consortium"])
	}
}
