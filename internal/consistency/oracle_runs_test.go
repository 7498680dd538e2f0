package consistency_test

import (
	"testing"

	"repro/btsim"
	_ "repro/btsim/systems"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/scenario"
)

// diffOracle requires Checker — the replay of the run's retained history
// into a Monitor — to report exactly what the definition-literal oracle
// reports on it: both verdicts whole (OK flags, Checked, violations,
// witnesses) and k-Fork Coherence for k = 1, 2. Update Agreement, LRC and
// Monotonic Prefix are the run's own monitor's reports, which must equal
// the oracle's and the replays'. Simulated runs record atomic operations,
// so no Checked count is exempt.
func diffOracle(t *testing.T, res *btsim.Result) {
	t.Helper()
	h := res.History
	if len(h.Reads()) == 0 {
		t.Fatal("run recorded no reads")
	}
	chk := consistency.NewChecker(res.Score, core.WellFormed{})
	sc, ec := chk.Classify(h)
	kfork := func(k int) *consistency.Report { return chk.KForkCoherence(h, k) }
	ua, lrc, mp := res.UpdateAgreement(), res.LRC(), res.MonotonicPrefix()
	if d := consistency.DiffOracle(h, res.Score, core.WellFormed{}, 0, sc, ec, kfork, ua, lrc, mp, false); d != "" {
		t.Error(d)
	}
	for _, rep := range [][2]*consistency.Report{
		{ua, consistency.UpdateAgreement(h)}, {lrc, consistency.LRC(h)}, {mp, chk.MonotonicPrefix(h)},
	} {
		if got, replay := consistency.ReportDump(rep[0]), consistency.ReportDump(rep[1]); got != replay {
			t.Errorf("the run's monitor reports\n%sa replay of its history\n%s", got, replay)
		}
	}
}

// TestClassifyMatchesOracleOnRuns keeps an independent reference on real
// runs: the 17 catalogue scenarios (every fault and adversary family,
// with the violations they are built to produce), the three pinned
// pipelines of the root determinism test, and the runs of btsim's stream
// test (one per registered system, two adversarial). The
// streaming-vs-replay tests of internal/scenario and btsim compare two
// feeds of the same engine; this one compares the engine with the
// definitions.
func TestClassifyMatchesOracleOnRuns(t *testing.T) {
	for _, spec := range scenario.Catalogue() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			o, err := spec.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			diffOracle(t, o.Res)
		})
	}
	type run struct {
		name, system string
		opts         []btsim.Option
	}
	runs := []run{
		{"pipeline/bitcoin-seed1", "bitcoin", []btsim.Option{
			btsim.WithN(4), btsim.WithRounds(120), btsim.WithSeed(1),
			btsim.WithReadEvery(15), btsim.WithDifficulty(5),
		}},
		{"pipeline/bitcoin-drop-seed9", "bitcoin", []btsim.Option{
			btsim.WithN(4), btsim.WithRounds(120), btsim.WithSeed(9),
			btsim.WithReadEvery(15), btsim.WithDifficulty(5),
			btsim.WithDropNth(3, 2),
		}},
		{"pipeline/ethereum-seed7", "ethereum", []btsim.Option{
			btsim.WithN(4), btsim.WithRounds(60), btsim.WithSeed(7),
			btsim.WithReadEvery(10), btsim.WithDifficulty(4),
		}},
	}
	for _, sys := range btsim.Systems() {
		runs = append(runs, run{"system/" + sys.Name(), sys.Name(), []btsim.Option{
			btsim.WithN(4), btsim.WithRounds(30), btsim.WithSeed(11),
		}})
	}
	// The two adversarial runs of btsim.TestMonitorMatchesBatchAcrossSystems.
	runs = append(runs, run{"adversarial/bitcoin-equivocate", "bitcoin", []btsim.Option{
		btsim.WithN(4), btsim.WithRounds(60), btsim.WithSeed(7), btsim.WithMerits(1, 1, 1, 2),
		btsim.WithAdversary(btsim.Adversary{Strategy: btsim.Equivocate, Forks: 2}),
	}}, run{"adversarial/ethereum-partition", "ethereum", []btsim.Option{
		btsim.WithN(4), btsim.WithRounds(50), btsim.WithSeed(3),
		btsim.WithFaults(btsim.Fault{Start: 40, End: btsim.NoHeal, Left: []int{0, 1}}),
	}})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			res, err := btsim.Run(r.system, r.opts...)
			if err != nil {
				t.Fatal(err)
			}
			diffOracle(t, res)
		})
	}
}
