package btsim_test

import (
	"testing"

	"repro/btsim"
	_ "repro/btsim/systems"
)

// benignOpts is the conformance baseline per system family: the PoW
// (prodigal-oracle) systems need a longer horizon with dense reads so
// the transient fork window is observable; the consensus family runs
// few heights.
func benignOpts(sys btsim.System, seed uint64) []btsim.Option {
	if sys.Info().K == 0 {
		return []btsim.Option{
			btsim.WithN(4), btsim.WithRounds(200), btsim.WithSeed(seed), btsim.WithReadEvery(6),
		}
	}
	return []btsim.Option{
		btsim.WithN(4), btsim.WithRounds(25), btsim.WithSeed(seed), btsim.WithReadEvery(10),
	}
}

func mustRun(t *testing.T, sys btsim.System, opts ...btsim.Option) *btsim.Result {
	t.Helper()
	res, err := sys.Run(btsim.NewConfig(opts...))
	if err != nil {
		t.Fatalf("%s: %v", sys.Name(), err)
	}
	return res
}

// TestConformanceReplayDigest pins the registry contract every system
// must honour: identical (options, seed) replays to the identical
// digest, and the digest depends on the seed.
func TestConformanceReplayDigest(t *testing.T) {
	for _, sys := range btsim.Systems() {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			a := mustRun(t, sys, benignOpts(sys, 42)...)
			b := mustRun(t, sys, benignOpts(sys, 42)...)
			if a.Digest() != b.Digest() {
				t.Fatalf("same options+seed diverged: %s vs %s", a.Digest(), b.Digest())
			}
			c := mustRun(t, sys, benignOpts(sys, 43)...)
			if c.Digest() == a.Digest() {
				t.Fatalf("different seeds collided on digest %s", a.Digest())
			}
		})
	}
}

// TestConformanceInfoMatchesMeasured runs every registered system
// benignly and checks the measured verdicts against the system's own
// declared Info: the claimed criterion must hold and the claimed oracle
// fork bound must be respected — the registry's claims are measured,
// not trusted.
func TestConformanceInfoMatchesMeasured(t *testing.T) {
	for _, sys := range btsim.Systems() {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			info := sys.Info()
			res := mustRun(t, sys, benignOpts(sys, 42)...)
			if res.Info != info {
				t.Fatalf("Result.Info %+v != registered Info %+v", res.Info, info)
			}
			if res.OracleClaim != info.Oracle {
				t.Errorf("run claims oracle %q, registry says %q", res.OracleClaim, info.Oracle)
			}
			if res.PaperCriterion != info.Criterion {
				t.Errorf("run claims criterion %q, registry says %q", res.PaperCriterion, info.Criterion)
			}
			sc, ec := res.Check()
			switch info.Criterion {
			case "SC", "SC w.h.p.":
				if !sc.OK || !ec.OK {
					t.Errorf("declared %s but measured SC=%v EC=%v", info.Criterion, sc.OK, ec.OK)
				}
			case "EC":
				if !ec.OK {
					t.Errorf("declared EC but measured EC=%v", ec.OK)
				}
			default:
				t.Fatalf("unknown declared criterion %q", info.Criterion)
			}
			if info.K >= 1 {
				if kf := res.KFork(info.K); !kf.OK {
					t.Errorf("declared %s but %d-fork coherence violated: %v", info.Oracle, info.K, kf.Violations)
				}
				if res.MeasuredForkMax > info.K {
					t.Errorf("declared fork bound %d but measured fork degree %d", info.K, res.MeasuredForkMax)
				}
			}
		})
	}
}

// TestConformanceOptionN pins WithN on every system: the run must hold
// exactly N replicas.
func TestConformanceOptionN(t *testing.T) {
	for _, sys := range btsim.Systems() {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			opts := append(benignOpts(sys, 42), btsim.WithN(6))
			res := mustRun(t, sys, opts...)
			if len(res.Trees) != 6 {
				t.Fatalf("WithN(6): run holds %d replica trees", len(res.Trees))
			}
		})
	}
}

// TestConformanceOptionRoundTrip pins that each remaining With* option
// is observable in the run it configures (on the richest adapter,
// bitcoin, plus delta on every system).
func TestConformanceOptionRoundTrip(t *testing.T) {
	bitcoin, _ := btsim.Lookup("bitcoin")
	base := benignOpts(bitcoin, 42)
	ref := mustRun(t, bitcoin, base...)

	t.Run("rounds", func(t *testing.T) {
		res := mustRun(t, bitcoin, append(base, btsim.WithRounds(100))...)
		if res.Digest() == ref.Digest() {
			t.Fatal("halving Rounds left the run unchanged")
		}
	})
	t.Run("read-every", func(t *testing.T) {
		dense := mustRun(t, bitcoin, append(base, btsim.WithReadEvery(3))...)
		if len(dense.History.Reads()) <= len(ref.History.Reads()) {
			t.Fatalf("denser read schedule produced %d reads, reference %d",
				len(dense.History.Reads()), len(ref.History.Reads()))
		}
	})
	t.Run("delta", func(t *testing.T) {
		for _, sys := range btsim.Systems() {
			ref := mustRun(t, sys, benignOpts(sys, 42)...)
			res := mustRun(t, sys, append(benignOpts(sys, 42), btsim.WithDelta(9))...)
			if res.Digest() == ref.Digest() {
				t.Errorf("%s: a delay bound of 9 left the run unchanged", sys.Name())
			}
		}
	})
	t.Run("difficulty", func(t *testing.T) {
		easy := mustRun(t, bitcoin, append(base, btsim.WithDifficulty(3))...)
		hard := mustRun(t, bitcoin, append(base, btsim.WithDifficulty(30))...)
		if easy.Stats["mined"] <= hard.Stats["mined"] {
			t.Fatalf("lower difficulty mined %d blocks, higher mined %d",
				easy.Stats["mined"], hard.Stats["mined"])
		}
	})
	t.Run("merits", func(t *testing.T) {
		res := mustRun(t, bitcoin, append(base, btsim.WithMerits(1, 0, 0, 0))...)
		for _, b := range res.Chain(1) {
			if !b.IsGenesis() && b.Creator != 0 {
				t.Fatalf("single-miner merits, but block by p%d on the chain", b.Creator)
			}
		}
		if res.Chain(1).Height() == 0 {
			t.Fatal("single miner produced no blocks")
		}
	})
	t.Run("faults", func(t *testing.T) {
		res := mustRun(t, bitcoin, append(base,
			btsim.WithFaults(btsim.Fault{Kind: "split", Start: 20, End: 80, Left: []int{0, 1}}))...)
		if len(res.FaultEvents) == 0 {
			t.Fatal("fault schedule produced no fault events")
		}
	})
	t.Run("adversary", func(t *testing.T) {
		res := mustRun(t, bitcoin, append(base,
			btsim.WithAdversary(btsim.Adversary{Strategy: btsim.Selfish, Lead: 1}),
			btsim.WithMerits(1, 1, 1, 1.5))...)
		if res.AdversaryName == "—" || res.AdversaryName == "" {
			t.Fatalf("adversarial run labeled %q", res.AdversaryName)
		}
	})
	t.Run("drop", func(t *testing.T) {
		res := mustRun(t, bitcoin, append(base, btsim.WithDropNth(0, 2), btsim.WithMerits(1, 0, 0, 0))...)
		if ua := res.UpdateAgreement(); ua.OK {
			t.Fatal("dropping the first update to p2 should break Update Agreement")
		}
	})
}

// TestConformanceObserver pins the WithObserver contract: a pure
// observer leaves the run byte-identical, sees every round in order,
// and returning false stops block production early.
func TestConformanceObserver(t *testing.T) {
	bitcoin, _ := btsim.Lookup("bitcoin")
	base := benignOpts(bitcoin, 42)
	ref := mustRun(t, bitcoin, base...)

	var seen []btsim.Progress
	res := mustRun(t, bitcoin, append(base, btsim.WithObserver(func(p btsim.Progress) bool {
		seen = append(seen, p)
		return true
	}))...)
	if res.Digest() != ref.Digest() {
		t.Fatal("a pure observer changed the run")
	}
	if len(seen) != 200 {
		t.Fatalf("observer saw %d rounds, want 200", len(seen))
	}
	for i, p := range seen {
		if p.Round != i || p.System != "bitcoin" || p.Rounds != 200 {
			t.Fatalf("progress %d wrong: %+v", i, p)
		}
		if i > 0 && p.VirtualTime < seen[i-1].VirtualTime {
			t.Fatalf("progress %d: VirtualTime went backwards (%d after %d)", i, p.VirtualTime, seen[i-1].VirtualTime)
		}
	}

	calls := 0
	stopped := mustRun(t, bitcoin, append(base, btsim.WithObserver(func(p btsim.Progress) bool {
		calls++
		return p.Round < 20
	}))...)
	if calls != 21 {
		t.Fatalf("early-stop observer called %d times, want 21 (latched after the first false)", calls)
	}
	if stopped.Stats["mined"] >= ref.Stats["mined"] {
		t.Fatalf("early stop mined %d blocks, full run %d", stopped.Stats["mined"], ref.Stats["mined"])
	}

	// Defaulted rounds still yield a sound Progress.Rounds: observers
	// may guard on p.Round < p.Rounds even when Rounds wasn't set.
	defRounds := 0
	defRuns := 0
	mustRun(t, bitcoin, btsim.WithN(4), btsim.WithSeed(1),
		btsim.WithObserver(func(p btsim.Progress) bool {
			defRounds = p.Rounds
			defRuns++
			return p.Round < p.Rounds
		}))
	if defRounds <= 0 {
		t.Fatalf("Progress.Rounds = %d on a defaulted run, want the effective total", defRounds)
	}
	if defRuns != defRounds {
		t.Fatalf("observer saw %d rounds, effective total %d", defRuns, defRounds)
	}

	// Early stop on the consensus family: heights past the stop are
	// never started.
	byzcoin, _ := btsim.Lookup("byzcoin")
	bref := mustRun(t, byzcoin, benignOpts(byzcoin, 42)...)
	bstopped := mustRun(t, byzcoin, append(benignOpts(byzcoin, 42),
		btsim.WithObserver(func(p btsim.Progress) bool { return p.Round < 5 }))...)
	if bstopped.Stats["decisions"] >= bref.Stats["decisions"] {
		t.Fatalf("early stop decided %d times, full run %d",
			bstopped.Stats["decisions"], bref.Stats["decisions"])
	}
}

// TestConformanceIgnoredKnobsAreHarmless pins where the PoW knobs
// reach: difficulty and message loss move the run of each prodigal-
// oracle system (bitcoin, ethereum) and leave every other system's
// byte-identical (the documented Config contract).
func TestConformanceIgnoredKnobsAreHarmless(t *testing.T) {
	for _, sys := range btsim.Systems() {
		pow := sys.Info().K == 0
		ref := mustRun(t, sys, benignOpts(sys, 42)...)
		for name, opt := range map[string]btsim.Option{
			"WithDifficulty(2)": btsim.WithDifficulty(2),
			"WithDropNth(0, 1)": btsim.WithDropNth(0, 1),
		} {
			res := mustRun(t, sys, append(benignOpts(sys, 42), opt)...)
			if moved := res.Digest() != ref.Digest(); moved != pow {
				t.Errorf("%s: %s moved the digest: %v, want %v", sys.Name(), name, moved, pow)
			}
		}
	}
}

// TestAdversaryLabelMatchesWiring pins Result.AdversaryName to what the
// run did, not to what the options asked for: on a configuration where
// every wired attack fires (a heavy adversary on an easy lottery), the
// run is labelled with a strategy exactly when its digest departs from
// the benign run's. A system that has no use for the strategy runs
// benign and says "—".
func TestAdversaryLabelMatchesWiring(t *testing.T) {
	base := []btsim.Option{
		btsim.WithN(4), btsim.WithRounds(80), btsim.WithSeed(11),
		btsim.WithMerits(1, 1, 1, 3), btsim.WithDifficulty(2),
	}
	for _, sys := range btsim.Systems() {
		benign := mustRun(t, sys, base...)
		if benign.AdversaryName != "—" {
			t.Errorf("%s: benign run labelled %q", sys.Name(), benign.AdversaryName)
		}
		for _, strategy := range []btsim.Adversary{{Strategy: btsim.Selfish}, {Strategy: btsim.Withhold}, {Strategy: btsim.Equivocate}} {
			strategy.Lead = 1
			res := mustRun(t, sys, append(base, btsim.WithAdversary(strategy))...)
			attacked := res.Digest() != benign.Digest()
			if labelled := res.AdversaryName != "—"; labelled != attacked {
				t.Errorf("%s/%s: labelled %q, digest differs from the benign run's: %v",
					sys.Name(), strategy.Strategy, res.AdversaryName, attacked)
			}
		}
	}
}
