package systems

import (
	"testing"

	"repro/btsim"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/protocols"
	"repro/internal/tape"
)

// An eighth system in one file: a flooding lottery whose oracle lets at
// most two blocks chain to one parent (ΘF,k=2), longest-chain selection.
func toyDefinition(protocols.Config) *protocols.Definition {
	return &protocols.Definition{
		System: "Toy", Selector: core.LongestChain{}, Score: core.LengthScore{}, Predicate: core.WellFormed{},
		OracleClaim: "ΘF,k=2", PaperCriterion: "EC", FIFO: true, Delta: 3,
		Oracle: func(seed uint64) *oracle.Frugal {
			return oracle.NewFrugal(2, tape.DifficultyMapping(0.5), core.WellFormed{}, seed)
		},
	}
}

func toyRun(cfg protocols.Config) *protocols.Result {
	h := toyDefinition(cfg).Start(&cfg)
	h.LotteryRounds()
	h.ReadsEvery(cfg.ReadEvery, int64(cfg.Rounds))
	return h.Finish()
}

func init() {
	register("toy", "9.9", "frugal k=2 lottery, longest chain", toyDefinition, toyRun, lowered)
}

// TestToyEighthSystem simulates and deploys the registered toy: both
// drivers run the one definition, and both stay inside its oracle's k.
func TestToyEighthSystem(t *testing.T) {
	for mode, opts := range map[string][]btsim.Option{
		"sim":  {btsim.WithRounds(100)},
		"live": {btsim.WithLive("chan"), btsim.WithLoad(btsim.Load{Clients: 4, Appends: 60, Spray: true})},
	} {
		res, err := btsim.Run("toy", append(opts, btsim.WithN(6), btsim.WithSeed(1))...)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if info := res.Info; info.K != 2 || info.Oracle != "ΘF,k=2" || info.Criterion != "EC" {
			t.Fatalf("%s: Info %+v not read off the definition", mode, info)
		}
		if res.MeasuredForkMax > 2 || !res.KFork(2).OK {
			t.Errorf("%s: fork degree %d, 2-Fork Coherence %v", mode, res.MeasuredForkMax, res.KFork(2))
		}
		// The simulated schedule is deterministic: there the bound binds.
		if mode == "sim" && (res.MeasuredForkMax != 2 || res.Stats["rejected"] == 0) {
			t.Errorf("sim: fork degree %d with %d tokens refused — k=2 never reached", res.MeasuredForkMax, res.Stats["rejected"])
		}
	}
}
