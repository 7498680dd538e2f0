package btsim_test

import (
	"io"
	"reflect"
	"strings"
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
		btsim.WithLoad(btsim.Load{Clients: 2, Appends: 20}),
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

// TestLiveRejectsSimulationKnobs: every simulation-only row of the knobs
// table, set to a non-zero value on an otherwise valid live run, is
// rejected with an error naming its option — and so is each live
// mistake the table range-checks.
func TestLiveRejectsSimulationKnobs(t *testing.T) {
	sys, _ := btsim.Lookup("bitcoin")
	live := []btsim.Option{btsim.WithLive("chan"), btsim.WithLoad(btsim.Load{Appends: 5})}
	simOnly := 0
	for _, row := range btsim.KnobRows() {
		if row.Takes != "simulation" {
			continue
		}
		simOnly++
		cfg := btsim.NewConfig(live...)
		setNonZero(reflect.ValueOf(&cfg).Elem().FieldByName(row.Field))
		if _, err := sys.Run(cfg); err == nil || !strings.Contains(err.Error(), row.Option+" is simulation-only") {
			t.Errorf("live run with Config.%s set: error %v does not reject %s", row.Field, err, row.Option)
		}
	}
	if simOnly < 10 {
		t.Fatalf("the knobs table has only %d simulation-only rows", simOnly)
	}

	crashes := func(ws ...btsim.Crash) []btsim.Option { return append(live, btsim.WithN(4), btsim.WithCrashes(ws...)) }
	for name, opts := range map[string][]btsim.Option{
		"unknown carrier":       {btsim.WithLive("carrier-pigeon"), btsim.WithLoad(btsim.Load{Appends: 5})},
		"no duration no budget": {btsim.WithLive("chan")},
		"load without WithLive": {btsim.WithLoad(btsim.Load{Appends: 5})},
		"crash node past N":     crashes(btsim.Crash{Proc: 99, Start: 1, End: 5}),
		"live crash-stop":       crashes(btsim.Crash{Proc: 1, Start: 1, End: btsim.NoHeal}),
	} {
		if _, err := sys.Run(btsim.NewConfig(opts...)); err == nil {
			t.Errorf("%s: invalid live config accepted", name)
		}
	}
}

// setNonZero gives a Config field some non-zero value of its type.
func setNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
			return []reflect.Value{reflect.Zero(v.Type().Out(0))}
		}))
	case reflect.Interface: // TraceW
		v.Set(reflect.ValueOf(io.Discard))
	case reflect.Struct:
		setNonZero(v.Field(0))
	default:
		panic("setNonZero: no value for " + v.Type().String())
	}
}

// TestCrashRecoversLive drives the public crash path on a deployment:
// the one Crash declaration and the one durability knob, under WithLive.
// Fabric's orderer never loses the lottery, so the twelve appends are
// granted long before tick 4: the window opens and heals while Run waits
// for the rejoin, and no read lands on a replica that is still catching
// up — under either discipline the restarted node reconverges and
// nothing is violated.
func TestCrashRecoversLive(t *testing.T) {
	for _, durable := range []bool{true, false} {
		res, err := btsim.Run("fabric",
			btsim.WithN(4), btsim.WithSeed(9),
			btsim.WithLive("chan"), btsim.WithLoad(btsim.Load{Appends: 12}),
			btsim.WithCrashes(btsim.Crash{Proc: 1, Start: 4, End: 12}),
			btsim.WithDurability(durable))
		if err != nil {
			t.Fatal(err)
		}
		restores, resets := 1, 0
		if !durable {
			restores, resets = 0, 1
		}
		rs := res.Live.Recovery
		if rs == nil || rs.Crashes != 1 || rs.Restarts != 1 || rs.Solicits == 0 ||
			rs.DurableRestores != restores || rs.AmnesiaResets != resets {
			t.Fatalf("durable=%v: recovery stats %+v, want one crash and one restart under that discipline", durable, rs)
		}
		if res.Recovery != rs {
			t.Errorf("durable=%v: Result.Recovery is not the deployment's", durable)
		}
		if !res.Live.Converged {
			t.Errorf("durable=%v: the restarted node did not reconverge", durable)
		}
		if v := res.Live.Violated(); len(v) != 0 || res.Live.MonitorErr != nil {
			t.Errorf("durable=%v: violated %v (monitor error %v)", durable, v, res.Live.MonitorErr)
		}
	}
}

// TestCrashWindowsMergeLive: a deployment merges the windows of one
// node that touch or overlap into one down-span, as the simulator does —
// one crash and one restart, after which the node reconverges with
// nothing violated.
func TestCrashWindowsMergeLive(t *testing.T) {
	for name, windows := range map[string][]btsim.Crash{
		"touching":    {{Proc: 1, Start: 4, End: 8}, {Proc: 1, Start: 8, End: 12}},
		"overlapping": {{Proc: 1, Start: 6, End: 12}, {Proc: 1, Start: 4, End: 8}},
	} {
		res, err := btsim.Run("fabric",
			btsim.WithN(4), btsim.WithSeed(9),
			btsim.WithLive("chan"), btsim.WithLoad(btsim.Load{Appends: 12}),
			btsim.WithCrashes(windows...), btsim.WithDurability(true))
		if err != nil {
			t.Fatalf("%s windows: %v", name, err)
		}
		if rs := res.Live.Recovery; rs == nil || rs.Crashes != 1 || rs.Restarts != 1 || rs.DurableRestores != 1 {
			t.Errorf("%s windows: recovery stats %+v, want one crash and one restart", name, rs)
		}
		if !res.Live.Converged {
			t.Errorf("%s windows: the restarted node did not reconverge", name)
		}
		if v := res.Live.Violated(); len(v) != 0 || res.Live.MonitorErr != nil {
			t.Errorf("%s windows: violated %v (monitor error %v)", name, v, res.Live.MonitorErr)
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
		btsim.WithLive("chan"), btsim.WithLoad(btsim.Load{Clients: 4, Appends: 60, Spray: true}),
		btsim.WithMonitor(func(consistency.Witness) { seen++ }), btsim.WithMonitorK(1))
	if err != nil {
		t.Fatal(err)
	}
	lr := res.Live
	if lr.KFork == nil {
		t.Fatal("WithMonitorK(1) produced no k-Fork Coherence report on a live run")
	}
	// The online verdicts of a run are in Result.Stream under either
	// driver: a live run's are its deployment's.
	if so := res.Stream; so == nil || so.Outcome != lr.Outcome || so.Ops != lr.MonitorStats.Ops {
		t.Fatalf("Result.Stream = %+v, want the deployment's outcome", so)
	}
	if seen != lr.LiveWitnesses {
		t.Fatalf("WithMonitor callback saw %d witnesses, the run counted %d", seen, lr.LiveWitnesses)
	}
	if res.MeasuredForkMax > 1 && (lr.KFork.OK || seen == 0) {
		t.Fatalf("fork degree %d but k=1 coherence %v with %d witnesses", res.MeasuredForkMax, lr.KFork.OK, seen)
	}
}

// TestStreamKeepsLiveWitnessesUnderBothDrivers: Result.Stream.Live holds
// the first liveKeep (64) witnesses the WithMonitor callback saw, in its
// order, whichever driver ran: PoW at difficulty 1 forks, so both runs
// raise witnesses.
func TestStreamKeepsLiveWitnessesUnderBothDrivers(t *testing.T) {
	for driver, opts := range map[string][]btsim.Option{
		"live": {btsim.WithLive("chan"), btsim.WithLoad(btsim.Load{Clients: 4, Appends: 300, Spray: true})},
		"sim":  {btsim.WithRounds(200)},
	} {
		t.Run(driver, func(t *testing.T) {
			var seen []consistency.Witness // written on the monitor's goroutine, read after the run joined it
			opts = append(opts, btsim.WithN(4), btsim.WithSeed(3), btsim.WithDifficulty(1),
				btsim.WithMonitor(func(w consistency.Witness) { seen = append(seen, w) }))
			res, err := btsim.Run("bitcoin", opts...)
			if err != nil {
				t.Fatal(err)
			}
			so := res.Stream
			if so.LiveWitnesses == 0 || so.LiveWitnesses != len(seen) {
				t.Fatalf("LiveWitnesses %d, callback saw %d witnesses; want the same, > 0", so.LiveWitnesses, len(seen))
			}
			if want := seen[:min(len(seen), 64)]; !reflect.DeepEqual(so.Live, want) {
				t.Fatalf("Stream.Live holds %d witnesses, want the callback's first %d in its order", len(so.Live), len(want))
			}
		})
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
			live := mustRun(t, sys, btsim.WithSeed(5), btsim.WithLive("chan"), btsim.WithLoad(btsim.Load{Appends: 6}))
			if live.Live == nil || !live.Live.Converged {
				t.Fatal("live run did not converge")
			}
			for mode, res := range map[string]*btsim.Result{"sim": sim, "live": live} {
				if res.OracleClaim != info.Oracle || res.PaperCriterion != info.Criterion {
					t.Errorf("%s claims (%s, %s), Info says (%s, %s)", mode,
						res.OracleClaim, res.PaperCriterion, info.Oracle, info.Criterion)
				}
				if !reflect.DeepEqual(res.Info, info) {
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
