package transport

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/replica"
)

// testProfile is a minimal prodigal system for driver tests: identity
// merit mapping with merit 1, so every mint is granted.
func testProfile() Profile {
	orc := oracle.NewProdigal(nil, core.WellFormed{}, 0x11fe)
	return Profile{
		System:    "TestChain",
		Selector:  core.LongestChain{},
		Score:     core.LengthScore{},
		Predicate: core.WellFormed{},
		Mint: func(proc int, parent *core.Block, seq int) *core.Block {
			b, ok := orc.GetToken(1, parent, proc, seq, nil)
			if !ok {
				return nil
			}
			if _, consumed := orc.ConsumeToken(b); !consumed {
				return nil
			}
			return b
		},
	}
}

func TestLiveRunBenign(t *testing.T) {
	res, err := Run(LiveConfig{
		Transport:  "chan",
		N:          4,
		Seed:       7,
		MaxAppends: 30,
		Clients:    2,
	}, testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.AppendsOK < 30 {
		t.Fatalf("granted %d appends, want >= 30", res.AppendsOK)
	}
	if !res.Converged {
		t.Fatal("deployment did not converge before the settle timeout")
	}
	if res.MonitorErr != nil {
		t.Fatalf("monitor consumer failed: %v", res.MonitorErr)
	}
	if v := res.Violated(); len(v) != 0 {
		t.Fatalf("benign single-writer run violated %v\nSC: %v\nEC: %v", v, res.SC, res.EC)
	}
	if res.LiveWitnesses != 0 {
		t.Fatalf("benign run streamed %d witnesses", res.LiveWitnesses)
	}
	if len(res.Trees) != 4 {
		t.Fatalf("got %d trees", len(res.Trees))
	}
	want := res.Trees[0].Len()
	for i, tree := range res.Trees {
		if tree.Len() != want {
			t.Fatalf("tree %d has %d blocks, tree 0 has %d", i, tree.Len(), want)
		}
	}
	if res.History == nil || len(res.History.Ops) == 0 {
		t.Fatal("no operations recorded")
	}
}

func TestLiveRunCrashDurableRejoins(t *testing.T) {
	res, err := Run(LiveConfig{
		Transport: "chan",
		N:         4,
		Seed:      11,
		Duration:  700 * time.Millisecond,
		Clients:   2,
		// Node 2 is a reader: the writer keeps appending past it while it
		// is down from 100 ms to 300 ms into the load.
		Crashes: []replica.CrashWindow{{Proc: 2, Start: 8, End: 24}},
		Durable: true,
	}, testProfile())
	if err != nil {
		t.Fatal(err)
	}
	rs := res.Recovery
	if rs == nil {
		t.Fatal("no recovery stats on a crash run")
	}
	if rs.Crashes != 1 || rs.Restarts != 1 || rs.DurableRestores != 1 {
		t.Fatalf("recovery counters off: %+v", rs)
	}
	if rs.Solicits == 0 {
		t.Fatalf("restarted node never solicited catch-up: %+v", rs)
	}
	if !res.Converged {
		t.Fatal("crashed node did not reconverge")
	}
	if v := res.Violated(); len(v) != 0 {
		t.Fatalf("crash+durable-restart violated %v\nSC: %v\nEC: %v", v, res.SC, res.EC)
	}
	want := res.Trees[0].Len()
	for i, tree := range res.Trees {
		if tree.Len() != want {
			t.Fatalf("tree %d has %d blocks after rejoin, tree 0 has %d", i, tree.Len(), want)
		}
	}
}

func TestLiveRunNeedsABound(t *testing.T) {
	if _, err := Run(LiveConfig{Transport: "chan", N: 2}, testProfile()); err == nil {
		t.Fatal("unbounded live run accepted")
	}
	// N has no default here: protocols.Config.Norm supplies it.
	if _, err := Run(LiveConfig{Transport: "chan", MaxAppends: 5}, testProfile()); err == nil {
		t.Fatal("live run without nodes accepted")
	}
}

func TestLiveRunTCP(t *testing.T) {
	res, err := Run(LiveConfig{
		Transport:  "tcp",
		N:          3,
		Seed:       3,
		MaxAppends: 10,
	}, testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport != "tcp" {
		t.Fatalf("transport %q", res.Transport)
	}
	if res.AppendsOK < 10 || !res.Converged {
		t.Fatalf("tcp run: appends=%d converged=%v", res.AppendsOK, res.Converged)
	}
	if v := res.Violated(); len(v) != 0 {
		t.Fatalf("tcp benign run violated %v", v)
	}
}

// TestLiveTCPTreesHoldTheIndexBlocks: over tcp, as over chan, a flooded
// block is one object in the whole deployment — every tree holds the very
// *core.Block the run's index interned, not a copy its node decoded.
func TestLiveTCPTreesHoldTheIndexBlocks(t *testing.T) {
	res, err := Run(LiveConfig{
		Transport:  "tcp",
		N:          8,
		Seed:       5,
		MaxAppends: 40,
	}, testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.AppendsOK < 40 {
		t.Fatalf("tcp run: appends=%d converged=%v", res.AppendsOK, res.Converged)
	}
	idx := res.History.Table
	for i, tree := range res.Trees {
		for _, b := range tree.Blocks() {
			if held := idx.Block(b.ID); held != b {
				t.Fatalf("tree %d holds its own copy %p of %s, the index holds %p", i, b, b, held)
			}
		}
	}
}

// TestLiveRunFailedDeploymentLeavesNoGoroutine occupies a loopback port
// and hands it to node 1 of a tcp deployment: Run must report the listen
// error with everything it had already started — node 0's accept loop,
// the monitor's consumer — stopped again. The goroutine count is compared
// with its pre-run baseline the way cmd/live -check does it.
func TestLiveRunFailedDeploymentLeavesNoGoroutine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	base := runtime.NumGoroutine()
	_, err = Run(LiveConfig{
		Transport:  "tcp",
		N:          3,
		Addrs:      []string{"", ln.Addr().String(), ""},
		MaxAppends: 10,
	}, testProfile())
	if err == nil || !strings.Contains(err.Error(), "listen") {
		t.Fatalf("Run on an occupied port returned %v, want a listen error", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) left behind by the failed deployment", runtime.NumGoroutine()-base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
