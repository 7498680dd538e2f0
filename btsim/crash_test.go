package btsim_test

import (
	"strings"
	"testing"

	"repro/btsim"
	_ "repro/btsim/systems"
)

// crashOpts is the crash-conformance baseline: a PoW run long enough
// that a mid-run crash window and its catch-up are observable.
func crashOpts(extra ...btsim.Option) []btsim.Option {
	base := []btsim.Option{
		btsim.WithN(4), btsim.WithRounds(120), btsim.WithSeed(7), btsim.WithReadEvery(6),
	}
	return append(base, extra...)
}

// TestWithCrashesObservable pins the crash options' observability on
// every registered system (the shared harness wires recovery once): a
// crash window changes the digest, surfaces crash/restart/crashloss
// fault events, fills Result.Recovery under the chosen discipline, and
// the restarted replica catches up with its peers.
func TestWithCrashesObservable(t *testing.T) {
	for _, sys := range btsim.Systems() {
		t.Run(sys.Name(), func(t *testing.T) {
			benign := mustRun(t, sys, crashOpts()...)
			if benign.Recovery != nil {
				t.Fatal("benign run carries recovery stats")
			}
			for _, durable := range []bool{true, false} {
				crashed := mustRun(t, sys, crashOpts(
					btsim.WithCrashes(btsim.Crash{Proc: 2, Start: 40, End: 80}),
					btsim.WithDurability(durable))...)

				if benign.Digest() == crashed.Digest() {
					t.Fatal("crash schedule did not change the digest")
				}
				rs := crashed.Recovery
				if rs == nil || rs.Crashes != 1 || rs.Restarts != 1 {
					t.Fatalf("durable=%v: recovery stats %+v, want one crash/restart", durable, rs)
				}
				if durable && (rs.DurableRestores != 1 || rs.AmnesiaResets != 0) ||
					!durable && (rs.DurableRestores != 0 || rs.AmnesiaResets != 1) {
					t.Fatalf("durable=%v: recovery stats %+v ignore the discipline", durable, rs)
				}
				if rs.Solicits == 0 {
					t.Fatalf("recovery stats %+v, want at least one catch-up solicit", rs)
				}
				kinds := map[string]int{}
				for _, e := range crashed.FaultEvents {
					kinds[e.Kind]++
				}
				if kinds["crash"] != 1 || kinds["restart"] != 1 {
					t.Fatalf("fault kinds %v, want one crash and one restart", kinds)
				}
				if kinds["crashloss"] == 0 {
					t.Fatalf("fault kinds %v, want crashloss drops while down", kinds)
				}
				if got, peer := crashed.Chain(2).Height(), crashed.Chain(0).Height(); got != peer {
					t.Fatalf("durable=%v: restarted replica ends at height %d, its peers at %d (%v)",
						durable, got, peer, crashed.FinalHeights())
				}
				// A durable restart is invisible to the criteria: EC for
				// everyone, SC too where the oracle is frugal.
				if sc, ec := crashed.Check(); durable && (!ec.OK || sys.Info().K > 0 && !sc.OK) {
					t.Fatalf("durable recovery broke the system's criterion:\nSC: %v\nEC: %v", sc, ec)
				}
			}
		})
	}
}

// TestWithDurabilityObservable pins the durable-vs-amnesia split on the
// same crash schedule: the digests differ, amnesia resyncs strictly
// more blocks, and — the hierarchy claim — the amnesia run breaks
// Local Monotonic Read (the restarted replica's reads jump backwards)
// where the durable run keeps Eventual Consistency intact.
func TestWithDurabilityObservable(t *testing.T) {
	sys, ok := btsim.Lookup("bitcoin")
	if !ok {
		t.Fatal("bitcoin not registered")
	}
	window := btsim.WithCrashes(btsim.Crash{Proc: 2, Start: 40, End: 80})
	durable := mustRun(t, sys, crashOpts(window, btsim.WithDurability(true))...)
	amnesia := mustRun(t, sys, crashOpts(window, btsim.WithDurability(false))...)

	if durable.Digest() == amnesia.Digest() {
		t.Fatal("durability did not change the digest")
	}
	if amnesia.Recovery.ResyncBlocks <= durable.Recovery.ResyncBlocks {
		t.Fatalf("amnesia resynced %d blocks, durable %d — amnesia must cost strictly more",
			amnesia.Recovery.ResyncBlocks, durable.Recovery.ResyncBlocks)
	}
	_, ecD := durable.Check()
	_, ecA := amnesia.Check()
	if !ecD.OK {
		t.Fatalf("durable recovery broke EC: %v", ecD.Failing())
	}
	if ecA.OK {
		t.Fatal("amnesia recovery left EC intact — expected a LocalMonotonicRead violation")
	}
	failing := strings.Join(ecA.Failing(), ",")
	if !strings.Contains(failing, "LocalMonotonicRead") {
		t.Fatalf("amnesia broke %s, want LocalMonotonicRead", failing)
	}
}

// TestCrashStopOption pins the permanent-crash variant: the process
// never restarts and the run still completes with the survivors.
func TestCrashStopOption(t *testing.T) {
	sys, ok := btsim.Lookup("bitcoin")
	if !ok {
		t.Fatal("bitcoin not registered")
	}
	res := mustRun(t, sys, crashOpts(
		btsim.WithCrashes(btsim.Crash{Proc: 3, Start: 50, End: btsim.NoHeal}))...)
	rs := res.Recovery
	if rs == nil || rs.Crashes != 1 || rs.Restarts != 0 {
		t.Fatalf("recovery stats %+v, want one crash and no restart", rs)
	}
	// The crash-stopped replica's tree froze mid-run.
	frozen, live := res.Trees[3].Len(), res.Trees[0].Len()
	if frozen >= live {
		t.Fatalf("crash-stopped tree has %d blocks vs %d live — it should have missed the tail", frozen, live)
	}
}

// TestCrashValidation pins the config validation of the new options.
func TestCrashValidation(t *testing.T) {
	sys, ok := btsim.Lookup("bitcoin")
	if !ok {
		t.Fatal("bitcoin not registered")
	}
	if _, err := sys.Run(btsim.NewConfig(
		btsim.WithCrashes(btsim.Crash{Proc: -1, Start: 0, End: 10}))); err == nil {
		t.Error("negative crash proc accepted")
	}
	if _, err := sys.Run(btsim.NewConfig(
		btsim.WithCrashes(btsim.Crash{Proc: 0, Start: 10, End: 10}))); err == nil {
		t.Error("empty crash window accepted")
	}
	// Logged at virtual time -5 while it acted at 0.
	if _, err := sys.Run(btsim.NewConfig(
		btsim.WithCrashes(btsim.Crash{Proc: 0, Start: -5, End: 10}))); err == nil {
		t.Error("crash starting before time 0 accepted")
	}
	// A process past N used to reach the simulator and index out of range.
	for name, opts := range map[string][]btsim.Option{
		"N = 4":     {btsim.WithN(4), btsim.WithCrashes(btsim.Crash{Proc: 99, Start: 1, End: 5})},
		"default N": {btsim.WithCrashes(btsim.Crash{Proc: 99, Start: 1, End: 5})},
	} {
		if _, err := sys.Run(btsim.NewConfig(opts...)); err == nil {
			t.Errorf("crash process 99 at %s accepted", name)
		}
	}
}

// TestCrashReplayDeterminism: identical crash configs replay to the
// identical digest (the crash machinery is fully deterministic).
func TestCrashReplayDeterminism(t *testing.T) {
	sys, ok := btsim.Lookup("ethereum")
	if !ok {
		t.Fatal("ethereum not registered")
	}
	opts := crashOpts(
		btsim.WithCrashes(btsim.Crash{Proc: 1, Start: 30, End: 70}, btsim.Crash{Proc: 2, Start: 90, End: btsim.NoHeal}),
		btsim.WithDurability(false))
	a := mustRun(t, sys, opts...)
	b := mustRun(t, sys, opts...)
	if a.Digest() != b.Digest() {
		t.Fatalf("crash replay diverged: %s vs %s", a.Digest(), b.Digest())
	}
}
