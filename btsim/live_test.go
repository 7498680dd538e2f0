package btsim_test

import (
	"testing"

	"repro/btsim"
	_ "repro/btsim/systems"
	"repro/internal/consistency"
)

// liveProperties are the six BT-ADT properties a benign single-writer
// live deployment must satisfy regardless of system — the live-vs-sim
// conformance contract: the deployment path (real goroutines, wall
// clocks, live carrier) reaches the same verdicts the simulated path
// pins in the scenario catalogue.
func checkLiveBenign(t *testing.T, system string) {
	t.Helper()
	res, err := btsim.Run(system,
		btsim.WithN(8),
		btsim.WithSeed(42),
		btsim.WithLive("chan"),
		btsim.WithLiveAppends(20),
		btsim.WithLoad(2, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	lr := res.Live
	if lr == nil {
		t.Fatal("WithLive run returned no LiveResult")
	}
	if lr.MonitorErr != nil {
		t.Fatalf("online monitor failed: %v", lr.MonitorErr)
	}
	if !lr.Converged {
		t.Fatal("deployment did not converge before the settle timeout")
	}
	if lr.LiveWitnesses != 0 {
		t.Fatalf("benign run streamed %d live witnesses", lr.LiveWitnesses)
	}
	if v := lr.Violated(); len(v) != 0 {
		t.Fatalf("benign live %s violated %v\nSC: %v\nEC: %v", system, v, lr.SC, lr.EC)
	}
	// All six properties present and OK across the two verdicts.
	seen := map[string]bool{}
	for _, rep := range append(lr.SC.Reports, lr.EC.Reports...) {
		if !rep.OK {
			t.Fatalf("%s: property %s broken: %v", system, rep.Property, rep)
		}
		seen[rep.Property] = true
	}
	for _, p := range []string{
		"BlockValidity", "LocalMonotonicRead", "StrongPrefix",
		"EverGrowingTree", "EventualPrefix",
	} {
		if !seen[p] {
			t.Fatalf("%s: property %s missing from live verdicts (got %v)", system, p, seen)
		}
	}
	// The live evidence feeds the batch checker identically: Check()
	// on the embedded Result must agree with the online verdicts.
	sc, ec := res.Check()
	if !sc.OK || !ec.OK {
		t.Fatalf("%s: batch re-check of live history disagrees:\nSC: %v\nEC: %v", system, sc, ec)
	}
	if lr.AppendsOK < 20 {
		t.Fatalf("%s: granted %d appends, want >= 20", system, lr.AppendsOK)
	}
}

func TestLiveConformanceBitcoin(t *testing.T) { checkLiveBenign(t, "bitcoin") }
func TestLiveConformanceFabric(t *testing.T)  { checkLiveBenign(t, "fabric") }

func TestLiveRejectsSimulationKnobs(t *testing.T) {
	cases := [][]btsim.Option{
		{btsim.WithLive("chan"), btsim.WithLiveAppends(5), btsim.WithStreaming(0)},
		{btsim.WithLive("chan"), btsim.WithLiveAppends(5), btsim.WithMonitorCheckpoint(100)},
		{btsim.WithLive("chan"), btsim.WithLiveAppends(5), btsim.WithShards(4)},
		{btsim.WithLive("chan"), btsim.WithLiveAppends(5), btsim.WithCrashes(btsim.Crash{Proc: 1, Start: 1, End: 2})},
		{btsim.WithLive("carrier-pigeon"), btsim.WithLiveAppends(5)},
		{btsim.WithLive("chan")},   // no duration, no budget
		{btsim.WithLiveAppends(5)}, // live knob without WithLive
	}
	for i, opts := range cases {
		if _, err := btsim.Run("bitcoin", opts...); err == nil {
			t.Errorf("case %d: invalid live config accepted", i)
		}
	}
}

// TestLiveTakesMonitorOptions pins one option per concept: WithMonitor
// and WithMonitorK configure the deployment's own monitor. Spraying the
// prodigal PoW across nodes forks the tree, so k=1 coherence breaks and
// the callback sees the witnesses the run counts.
func TestLiveTakesMonitorOptions(t *testing.T) {
	var seen int // written by the monitor's consumer goroutine, read after the run joined it
	res, err := btsim.Run("ethereum",
		btsim.WithN(6), btsim.WithSeed(3), btsim.WithDifficulty(1),
		btsim.WithLive("chan"), btsim.WithLiveAppends(60), btsim.WithLiveSpray(), btsim.WithLoad(4, 0),
		btsim.WithMonitor(func(consistency.Witness) { seen++ }), btsim.WithMonitorK(1))
	if err != nil {
		t.Fatal(err)
	}
	lr := res.Live
	if lr.KFork == nil {
		t.Fatal("WithMonitorK(1) produced no k-Fork Coherence report on a live run")
	}
	if res.Stream != nil {
		t.Fatal("live run carries a simulation StreamOutcome")
	}
	if seen != lr.LiveWitnesses {
		t.Fatalf("WithMonitor callback saw %d witnesses, the run counted %d", seen, lr.LiveWitnesses)
	}
	if res.MeasuredForkMax > 1 && (lr.KFork.OK || seen == 0) {
		t.Fatalf("fork degree %d but k=1 coherence %v with %d witnesses", res.MeasuredForkMax, lr.KFork.OK, seen)
	}
}

// TestDefinitionAgreesAcrossDrivers: for every registered system the
// registry descriptor, the simulated run and the live run state the same
// Table 1 row — they all read it off one protocols.Definition.
func TestDefinitionAgreesAcrossDrivers(t *testing.T) {
	for _, sys := range btsim.Systems() {
		t.Run(sys.Name(), func(t *testing.T) {
			info := sys.Info()
			// No WithN: every system must run on the shared defaults.
			sim := mustRun(t, sys, btsim.WithRounds(12), btsim.WithSeed(5))
			live := mustRun(t, sys, btsim.WithSeed(5), btsim.WithLive("chan"), btsim.WithLiveAppends(6))
			if live.Live == nil || !live.Live.Converged {
				t.Fatal("live run did not converge")
			}
			for mode, res := range map[string]*btsim.Result{"sim": sim, "live": live} {
				if res.OracleClaim != info.Oracle || res.PaperCriterion != info.Criterion {
					t.Errorf("%s claims (%s, %s), Info says (%s, %s)", mode,
						res.OracleClaim, res.PaperCriterion, info.Oracle, info.Criterion)
				}
				if res.Info != info {
					t.Errorf("%s result stamped with %+v, registry has %+v", mode, res.Info, info)
				}
				if info.K > 0 && (res.MeasuredForkMax > info.K || !res.KFork(info.K).OK) {
					t.Errorf("%s: benign run broke the claimed ΘF,k=%d (fork degree %d)", mode, info.K, res.MeasuredForkMax)
				}
			}
			if sim.System != live.System || sim.Selector.Name() != live.Selector.Name() || sim.Score != live.Score {
				t.Errorf("sim runs (%s, %s, %v), live runs (%s, %s, %v)",
					sim.System, sim.Selector.Name(), sim.Score, live.System, live.Selector.Name(), live.Score)
			}
		})
	}
}
