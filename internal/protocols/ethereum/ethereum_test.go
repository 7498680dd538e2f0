package ethereum

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
)

func defaultCfg(seed uint64) Config {
	var c Config
	c.N = 4
	c.Rounds = 200
	c.Seed = seed
	c.ReadEvery = 4
	c.Difficulty = 4
	return c
}

func TestRunUsesGHOST(t *testing.T) {
	res := Run(defaultCfg(1))
	if res.Selector.Name() != "ghost" {
		t.Fatalf("selector %s", res.Selector.Name())
	}
	if res.Stats["mined"] == 0 {
		t.Fatal("no blocks mined")
	}
	if res.System != "Ethereum" || res.OracleClaim != "ΘP" {
		t.Fatalf("identity wrong: %+v", res)
	}
}

func TestFasterBlocksProduceForks(t *testing.T) {
	// With difficulty 4 across 200 rounds and δ=3, concurrent mining
	// is frequent: the prodigal oracle must have been exercised (some
	// block has more than one child on at least one seed).
	forks := 0
	for _, seed := range []uint64{1, 2, 3, 4} {
		res := Run(defaultCfg(seed))
		if res.MeasuredForkMax > 1 {
			forks++
		}
	}
	if forks == 0 {
		t.Fatal("no forks across four seeds — prodigal behaviour unwitnessed")
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

func TestReplicasConvergeUnderGHOST(t *testing.T) {
	res := Run(defaultCfg(5))
	c0 := res.Selector.Select(res.Trees[0])
	for p := 1; p < len(res.Trees); p++ {
		cp := res.Selector.Select(res.Trees[p])
		if !c0.Equal(cp) {
			t.Fatalf("replica %d selects a different chain", p)
		}
	}
}

func TestGHOSTAndLongestCanDisagree(t *testing.T) {
	// Ablation hook: on at least one seed the GHOST chain differs
	// from the longest chain over the same final tree — the fork
	// choice rule matters (DESIGN.md ablation #1).
	disagree := false
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		res := Run(defaultCfg(seed))
		tr := res.Trees[0]
		g := core.GHOST{}.Select(tr)
		l := core.LongestChain{}.Select(tr)
		if !g.Equal(l) {
			disagree = true
			break
		}
	}
	// GHOST ≠ longest requires a heavy shallow subtree; it is
	// seed-dependent, so only warn when unwitnessed.
	if !disagree {
		t.Log("GHOST agreed with longest chain on all seeds (no heavy uncle subtree this run)")
	}
}

func TestUpdateAgreement(t *testing.T) {
	res := Run(defaultCfg(6))
	if rep := consistency.UpdateAgreement(res.History); !rep.OK {
		t.Fatalf("update agreement: %v", rep.Violations)
	}
}

func TestDeterminism(t *testing.T) {
	a, b := Run(defaultCfg(9)), Run(defaultCfg(9))
	if a.Stats["mined"] != b.Stats["mined"] || a.MeasuredForkMax != b.MeasuredForkMax {
		t.Fatal("nondeterministic run")
	}
}
