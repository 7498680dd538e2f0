package simnet_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/simnet"
)

// delivery is one message a handler saw.
type delivery struct {
	at       int64
	from, to int
	payload  any
}

// crashNet turns nw's fault recording on and collects every string
// payload its n processes are delivered (replica traffic is skipped).
func crashNet(sim *simnet.Sim, nw *simnet.Network, n int) *[]delivery {
	nw.RecordFaults(true)
	var got []delivery
	for p := 0; p < n; p++ {
		nw.AddHandler(p, func(m simnet.Message) {
			if _, ok := m.Payload.(string); ok {
				got = append(got, delivery{sim.Now(), m.From, m.To, m.Payload})
			}
		})
	}
	return &got
}

// edges lists the network's crash and restart fault events.
func edges(nw *simnet.Network) []simnet.FaultEvent {
	var out []simnet.FaultEvent
	for _, e := range nw.FaultEvents() {
		if e.Kind == "crash" || e.Kind == "restart" {
			out = append(out, e)
		}
	}
	return out
}

func TestCrashDropsDeliveriesWhileDown(t *testing.T) {
	sim := simnet.NewSim(1)
	nw := simnet.NewNetwork(sim, 3, simnet.Synchronous{Delta: 1})
	got := crashNet(sim, nw, 3)
	down := nw.Port(2)
	sim.Schedule(10-sim.Now(), func() { down.SetDown(true) })
	sim.Schedule(40-sim.Now(), func() { down.SetDown(false) })

	sim.Schedule(5, func() { nw.Send(0, 2, "before") })  // delivers ≤ 6 < 10
	sim.Schedule(20, func() { nw.Send(0, 2, "during") }) // lost
	sim.Schedule(20, func() { nw.Send(2, 0, "from-down") })
	sim.Schedule(50, func() { nw.Send(1, 2, "after") }) // delivers
	sim.RunUntilIdle()

	if len(*got) != 2 {
		t.Fatalf("delivered %d messages, want 2 (before+after): %v", len(*got), *got)
	}
	for _, d := range *got {
		if d.to == 2 && d.at >= 10 && d.at < 40 {
			t.Fatalf("delivery to p%d at %d while down", d.to, d.at)
		}
	}
	_, _, dropped := nw.Stats()
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	kinds := map[string]int{}
	for _, e := range nw.FaultEvents() {
		kinds[e.Kind]++
	}
	if kinds["crash"] != 1 || kinds["restart"] != 1 || kinds["crashloss"] != 2 {
		t.Fatalf("fault log kinds %v, want 1 crash, 1 restart, 2 crashloss", kinds)
	}
}

func TestCrashStopNeverRestarts(t *testing.T) {
	sim := simnet.NewSim(2)
	g := replica.NewGroup(sim, 2, simnet.Synchronous{Delta: 1}, core.LongestChain{})
	got := crashNet(sim, g.Net, 2)
	g.EnableCrashRecovery(true, []replica.CrashWindow{{Proc: 1, Start: 15, End: simnet.NoHeal}})

	sim.Schedule(30, func() { g.Net.Send(0, 1, "lost") })
	sim.Run(200)

	if len(*got) != 0 {
		t.Fatalf("deliveries to a crash-stopped process: %v", *got)
	}
	if e := edges(g.Net); len(e) != 1 || e[0].Kind != "crash" || e[0].Time != 15 {
		t.Fatalf("crash and restart edges %v, want one crash at 15", e)
	}
	if g.Recovery.Crashes != 1 || g.Recovery.Restarts != 0 {
		t.Fatalf("recovery %+v, want one crash and no restart", g.Recovery)
	}
	if !g.Net.Port(1).Down() {
		t.Fatal("process 1 should still be down at end of run")
	}
}

// TestCrashHooksFireBeforeSameTimeDeliveries pins the boundary order: a
// restart edge armed for t runs before messages delivered at t, so a
// restored replica is back before its first post-recovery message.
func TestCrashHooksFireBeforeSameTimeDeliveries(t *testing.T) {
	sim := simnet.NewSim(3)
	g := replica.NewGroup(sim, 2, simnet.Synchronous{Delta: 1}, core.LongestChain{})
	got := crashNet(sim, g.Net, 2)
	g.EnableCrashRecovery(false, []replica.CrashWindow{{Proc: 1, Start: 10, End: 21}})

	sim.Schedule(20, func() { g.Net.Send(0, 1, "x") }) // delivers at 21 == restart time
	sim.RunUntilIdle()

	if len(*got) != 1 || (*got)[0].at != 21 {
		t.Fatalf("deliveries %v, want x at 21", *got)
	}
	if e := edges(g.Net); len(e) != 2 || e[1].Kind != "restart" || e[1].Time != 21 {
		t.Fatalf("crash and restart edges %v, want the restart at 21", e)
	}
}

// TestOverlappingCrashWindowsMerge verifies that overlapping and
// adjacent windows for the same process act as one continuous down-span:
// exactly one crash and one restart fire.
func TestOverlappingCrashWindowsMerge(t *testing.T) {
	sim := simnet.NewSim(4)
	g := replica.NewGroup(sim, 2, simnet.Synchronous{Delta: 1}, core.LongestChain{})
	g.Net.RecordFaults(true)
	g.EnableCrashRecovery(false, []replica.CrashWindow{
		{Proc: 0, Start: 10, End: 30},
		{Proc: 0, Start: 20, End: 40}, // overlaps the first
		{Proc: 0, Start: 40, End: 50}, // adjacent to the second
	})
	port := g.Net.Port(0)
	var at25, at50 bool
	sim.Schedule(25-sim.Now(), func() { at25 = port.Down() })
	sim.Schedule(50-sim.Now(), func() { at50 = port.Down() })
	sim.RunUntilIdle()

	if rs := g.Recovery; rs.Crashes != 1 || rs.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1 and 1", rs.Crashes, rs.Restarts)
	}
	if e := edges(g.Net); len(e) != 2 || e[0].Time != 10 || e[1].Time != 50 {
		t.Fatalf("crash and restart edges %v, want the merged span [10,50)", e)
	}
	if !at25 || at50 {
		t.Fatal("Down disagrees with the merged span [10,50)")
	}
}
