package simnet

import (
	"testing"
)

func TestCrashDropsDeliveriesWhileDown(t *testing.T) {
	sim := NewSim(1)
	nw, got := collect(t, sim, 3)
	nw.RecordFaults(true)
	nw.SetSchedule(&Schedule{Crashes: []CrashWindow{{Proc: 2, Start: 10, End: 40}}})

	sim.Schedule(5, func() { nw.Send(0, 2, "before") })  // delivers ≤ 6 < 10
	sim.Schedule(20, func() { nw.Send(0, 2, "during") }) // lost
	sim.Schedule(20, func() { nw.Send(2, 0, "from-down") })
	sim.Schedule(50, func() { nw.Send(1, 2, "after") }) // delivers
	sim.RunUntilIdle()

	if len(*got) != 2 {
		t.Fatalf("delivered %d messages, want 2 (before+after): %v", len(*got), *got)
	}
	for _, d := range *got {
		if nw.Schedule().DownAt(d.At, d.To) {
			t.Fatalf("delivery to p%d at %d while down", d.To, d.At)
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
	sim := NewSim(2)
	nw, got := collect(t, sim, 2)
	nw.RecordFaults(true)
	nw.SetSchedule(&Schedule{Crashes: []CrashWindow{{Proc: 1, Start: 15, End: NoHeal}}})

	var crashes, restarts []int64
	nw.OnCrash(func(p int) { crashes = append(crashes, sim.Now()) })
	nw.OnRestart(func(p int) { restarts = append(restarts, sim.Now()) })

	sim.Schedule(30, func() { nw.Send(0, 1, "lost") })
	sim.Run(200)

	if len(*got) != 0 {
		t.Fatalf("deliveries to a crash-stopped process: %v", *got)
	}
	if len(crashes) != 1 || crashes[0] != 15 {
		t.Fatalf("crash firings %v, want one at 15", crashes)
	}
	if len(restarts) != 0 {
		t.Fatalf("restart fired for a crash-stop: %v", restarts)
	}
	if !nw.Down(1) {
		t.Fatal("process 1 should still be down at end of run")
	}
}

// TestCrashHooksFireBeforeSameTimeDeliveries pins the boundary order: a
// restart hook scheduled at t runs before messages delivered at t, so a
// restored replica is back before its first post-recovery message.
func TestCrashHooksFireBeforeSameTimeDeliveries(t *testing.T) {
	sim := NewSim(3)
	nw := NewNetwork(sim, 2, Synchronous{Delta: 1})
	var order []string
	nw.AddHandler(1, func(m Message) { order = append(order, "deliver") })
	nw.SetSchedule(&Schedule{Crashes: []CrashWindow{{Proc: 1, Start: 10, End: 21}}})
	nw.OnRestart(func(p int) { order = append(order, "restart") })

	sim.Schedule(20, func() { nw.Send(0, 1, "x") }) // delivers at 21 == restart time
	sim.RunUntilIdle()

	if len(order) != 2 || order[0] != "restart" || order[1] != "deliver" {
		t.Fatalf("order = %v, want [restart deliver]", order)
	}
}

// TestOverlappingCrashWindowsMerge verifies that overlapping and
// adjacent windows for the same process act as one continuous down-span:
// exactly one crash and one restart fire.
func TestOverlappingCrashWindowsMerge(t *testing.T) {
	sim := NewSim(4)
	nw := NewNetwork(sim, 2, Synchronous{Delta: 1})
	var crashes, restarts int
	nw.OnCrash(func(int) { crashes++ })
	nw.OnRestart(func(int) { restarts++ })
	nw.SetSchedule(&Schedule{Crashes: []CrashWindow{
		{Proc: 0, Start: 10, End: 30},
		{Proc: 0, Start: 20, End: 40}, // overlaps the first
		{Proc: 0, Start: 40, End: 50}, // adjacent to the second
	}})
	sim.RunUntilIdle()
	if crashes != 1 || restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1 and 1", crashes, restarts)
	}
	if nw.Schedule().DownAt(25, 0) != true || nw.Schedule().DownAt(50, 0) != false {
		t.Fatal("DownAt disagrees with the merged span [10,50)")
	}
}

// FuzzCrashSchedule mirrors FuzzPartitionSchedule for the crash model:
// (1) no delivery ever reaches a process while it is down, and nothing a
// down process sends escapes; (2) each continuous down-span fires
// exactly one crash and — unless permanent — exactly one restart, with
// Down(p) false right after the restart hook (timers resume); (3) every
// message whose endpoints are both up at send and delivery time is
// delivered exactly once.
func FuzzCrashSchedule(f *testing.F) {
	f.Add(uint64(1), int64(10), int64(30), int64(20), int64(60), uint8(6), uint8(12), true)
	f.Add(uint64(9), int64(0), int64(5), int64(5), int64(9), uint8(3), uint8(40), false)
	f.Add(uint64(42), int64(7), int64(-1), int64(0), int64(0), uint8(4), uint8(25), true)
	f.Fuzz(func(t *testing.T, seed uint64, s1, e1, s2, e2 int64, nprocs, nmsgs uint8, fifo bool) {
		n := int(nprocs%6) + 2
		norm := func(s, e int64) (int64, int64) {
			if s < 0 {
				s = -s
			}
			s %= 80
			if e != NoHeal {
				if e < 0 {
					e = -e
				}
				e = s + e%80
			}
			return s, e
		}
		s1, e1 = norm(s1, e1)
		s2, e2 = norm(s2, e2)
		// Two windows on overlapping processes: proc 0 and proc n-1 when
		// distinct, both on proc 0 when n is small — exercising the
		// overlap-merge logic.
		p2 := (n - 1) % n
		sched := &Schedule{Crashes: []CrashWindow{
			{Proc: 0, Start: s1, End: e1},
			{Proc: p2, Start: s2, End: e2},
		}}

		sim := NewSim(seed)
		nw := NewNetwork(sim, n, Synchronous{Delta: 2})
		type delivery struct {
			at       int64
			from, to int
			id       int
		}
		var got []delivery
		for p := 0; p < n; p++ {
			nw.AddHandler(p, func(m Message) {
				got = append(got, delivery{sim.Now(), m.From, m.To, m.Payload.(int)})
			})
		}
		nw.SetFIFO(fifo)

		type firing struct {
			at   int64
			proc int
		}
		var crashes, restarts []firing
		nw.OnCrash(func(p int) {
			crashes = append(crashes, firing{sim.Now(), p})
			if !nw.Down(p) {
				t.Fatalf("crash hook for p%d at %d but Down reports up", p, sim.Now())
			}
		})
		nw.OnRestart(func(p int) {
			restarts = append(restarts, firing{sim.Now(), p})
			if nw.Down(p) {
				t.Fatalf("restart hook for p%d at %d but Down still reports down", p, sim.Now())
			}
		})
		nw.SetSchedule(sched)

		type sent struct {
			at       int64
			from, to int
			id       int
		}
		var sends []sent
		rng := sim.RNG().Split()
		m := int(nmsgs%40) + 1
		for i := 0; i < m; i++ {
			at := int64(rng.Intn(120))
			from := rng.Intn(n)
			to := rng.Intn(n)
			if from == to {
				to = (to + 1) % n
			}
			id := i
			sends = append(sends, sent{at, from, to, id})
			sim.At(at, func() { nw.Send(from, to, id) })
		}
		sim.RunUntilIdle()

		// Invariant 1: no delivery to (or surviving send from) a down
		// process.
		for _, d := range got {
			if sched.DownAt(d.at, d.to) {
				t.Fatalf("message %d delivered to crashed p%d at %d", d.id, d.to, d.at)
			}
		}
		bySend := map[int]sent{}
		for _, s := range sends {
			bySend[s.id] = s
		}
		for _, d := range got {
			if s := bySend[d.id]; sched.DownAt(s.at, s.from) {
				t.Fatalf("message %d sent by crashed p%d at %d was delivered", d.id, s.from, s.at)
			}
		}

		// Invariant 2: exactly one crash per continuous down-span and
		// exactly one restart per recovery. Count spans per process from
		// the schedule itself.
		spanCount := func(p int) (downs, ups int) {
			wasDown := false
			const horizon = 400
			for tt := int64(0); tt < horizon; tt++ {
				down := sched.DownAt(tt, p)
				if down && !wasDown {
					downs++
				}
				if !down && wasDown {
					ups++
				}
				wasDown = down
			}
			return
		}
		for p := 0; p < n; p++ {
			wantDown, wantUp := spanCount(p)
			gotDown, gotUp := 0, 0
			for _, c := range crashes {
				if c.proc == p {
					gotDown++
				}
			}
			for _, r := range restarts {
				if r.proc == p {
					gotUp++
				}
			}
			if gotDown != wantDown || gotUp != wantUp {
				t.Fatalf("p%d: %d crashes / %d restarts fired, schedule has %d down-spans / %d recoveries (%v)",
					p, gotDown, gotUp, wantDown, wantUp, sched.Crashes)
			}
		}

		// Invariant 3: a message between endpoints that are up at send
		// time is delivered exactly once unless the destination was down
		// at its (delay-dependent) delivery time; deliveries never
		// duplicate.
		seen := map[int]int{}
		for _, d := range got {
			seen[d.id]++
		}
		for _, s := range sends {
			if seen[s.id] > 1 {
				t.Fatalf("message %d delivered %d times", s.id, seen[s.id])
			}
			if seen[s.id] == 0 {
				// Must be explained by a crash at one endpoint: sender
				// down at send, or destination down somewhere in the
				// possible delivery range (FIFO bumps can extend it, so
				// only the crash-free case is asserted).
				senderDown := sched.DownAt(s.at, s.from)
				destEverDown := len(sched.Crashes) > 0 &&
					(sched.Crashes[0].Proc == s.to || sched.Crashes[1].Proc == s.to)
				if !senderDown && !destEverDown {
					t.Fatalf("message %d (%d→%d @%d) lost with no crash on either endpoint", s.id, s.from, s.to, s.at)
				}
			}
		}
	})
}
