package simnet

import (
	"testing"
)

// collect returns a network of n procs whose deliveries are appended
// (with timestamps) to the returned slice.
func collect(t *testing.T, sim *Sim, n int) (*Network, *[]struct {
	At       int64
	From, To int
}) {
	t.Helper()
	nw := NewNetwork(sim, n, Synchronous{Delta: 1})
	var got []struct {
		At       int64
		From, To int
	}
	for p := 0; p < n; p++ {
		nw.AddHandler(p, func(m Message) {
			got = append(got, struct {
				At       int64
				From, To int
			}{sim.Now(), m.From, m.To})
		})
	}
	return nw, &got
}

func TestPartitionDefersUntilHeal(t *testing.T) {
	sim := NewSim(1)
	nw, got := collect(t, sim, 4)
	nw.RecordFaults(true)
	nw.SetSchedule(NewSchedule(SplitWindow(0, 50, 4, []int{0, 1})))

	sim.Schedule(10, func() {
		nw.Send(0, 2, "cross") // cut: deferred to heal
		nw.Send(0, 1, "same")  // same side: normal delivery
	})
	sim.RunUntilIdle()

	if len(*got) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(*got))
	}
	for _, d := range *got {
		if d.To == 2 && d.At < 50 {
			t.Fatalf("cross-cut message delivered at %d, before heal at 50", d.At)
		}
		if d.To == 1 && d.At >= 50 {
			t.Fatalf("same-side message deferred to %d", d.At)
		}
	}
	evs := nw.FaultEvents()
	kinds := map[string]int{}
	for _, e := range evs {
		kinds[e.Kind]++
	}
	if kinds["cut"] != 1 || kinds["heal"] != 1 || kinds["defer"] != 1 {
		t.Fatalf("fault log %v, want one cut, one heal, one defer", evs)
	}
}

func TestPermanentCutDrops(t *testing.T) {
	sim := NewSim(1)
	nw, got := collect(t, sim, 3)
	nw.SetSchedule(NewSchedule(EclipseWindow(0, NoHeal, 3, 2)))

	sim.Schedule(5, func() {
		nw.Send(0, 2, "lost")
		nw.Send(2, 1, "lost-too")
		nw.Send(0, 1, "ok")
	})
	sim.RunUntilIdle()

	if len(*got) != 1 || (*got)[0].To != 1 {
		t.Fatalf("deliveries %v, want only 0→1", *got)
	}
	_, _, dropped := nw.Stats()
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
}

func TestGSTShiftFlushesAtGST(t *testing.T) {
	sim := NewSim(7)
	nw, got := collect(t, sim, 2)
	// A delayed global stabilization time as a partition: split until
	// 100, whole afterwards, deferred messages flushing at the heal.
	nw.SetSchedule(NewSchedule(SplitWindow(0, 100, 2, []int{0})))

	sim.Schedule(1, func() { nw.Send(0, 1, "pre-GST") })
	sim.Schedule(150, func() { nw.Send(0, 1, "post-GST") })
	sim.RunUntilIdle()

	if len(*got) != 2 {
		t.Fatalf("delivered %d, want 2", len(*got))
	}
	if (*got)[0].At < 100 {
		t.Fatalf("pre-GST message delivered at %d, before GST", (*got)[0].At)
	}
	if (*got)[1].At < 150 || (*got)[1].At > 152 {
		t.Fatalf("post-GST message delivered at %d, want ~151", (*got)[1].At)
	}
}

func TestChainedWindowsDeferThroughBoth(t *testing.T) {
	// Two back-to-back windows both cutting 0|1: a message sent in the
	// first must flush only after the second ends.
	sim := NewSim(3)
	nw, got := collect(t, sim, 2)
	nw.SetSchedule(NewSchedule(
		SplitWindow(0, 20, 2, []int{0}),
		SplitWindow(20, 40, 2, []int{0}),
	))
	sim.Schedule(5, func() { nw.Send(0, 1, "x") })
	sim.RunUntilIdle()
	if len(*got) != 1 || (*got)[0].At < 40 {
		t.Fatalf("delivery %v, want at ≥ 40", *got)
	}
}

// TestFIFOBumpCannotCrossCut is the regression for the FIFO/schedule
// interaction: the per-link no-overtake bump must not push a message
// into an active cut window (the two constraints resolve jointly).
func TestFIFOBumpCannotCrossCut(t *testing.T) {
	sim := NewSim(1)
	nw, got := collect(t, sim, 2)
	nw.SetFIFO(true)
	nw.SetSchedule(NewSchedule(SplitWindow(50, 60, 2, []int{0})))
	// Two same-tick sends with delay 1 both want t=49 (uncut); the
	// second is FIFO-bumped to 50 — inside the cut — and must resolve
	// to the heal at 60.
	sim.Schedule(48, func() {
		nw.Send(0, 1, "first")
		nw.Send(0, 1, "second")
	})
	sim.RunUntilIdle()
	if len(*got) != 2 {
		t.Fatalf("delivered %d, want 2", len(*got))
	}
	for _, d := range *got {
		if nw.sched.Cut(d.At, 0, 1) {
			t.Fatalf("delivery at %d is inside the active cut", d.At)
		}
	}
	if (*got)[1].At < 60 {
		t.Fatalf("FIFO-bumped message delivered at %d, before the heal at 60", (*got)[1].At)
	}
}

// FuzzPartitionSchedule checks the two schedule invariants on random
// window sets and messages — with and without per-link FIFO ordering:
// (1) no delivery happens at a time when an active window separates the
// endpoints; (2) every message not crossing a permanent cut is
// eventually delivered (queued messages flush on heal), exactly once.
func FuzzPartitionSchedule(f *testing.F) {
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
		// Window 1 cuts the lower half away; window 2 eclipses proc 0.
		var left []int
		for p := 0; p < n/2; p++ {
			left = append(left, p)
		}
		sched := NewSchedule(SplitWindow(s1, e1, n, left), EclipseWindow(s2, e2, n, 0))

		sim := NewSim(seed)
		nw := NewNetwork(sim, n, Synchronous{Delta: 2})
		type delivery struct {
			at       int64
			from, to int
			id       int
		}
		var got []delivery
		for p := 0; p < n; p++ {
			p := p
			nw.AddHandler(p, func(m Message) {
				got = append(got, delivery{sim.Now(), m.From, m.To, m.Payload.(int)})
			})
		}
		nw.SetFIFO(fifo)
		nw.SetSchedule(sched)

		type sent struct {
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
			sends = append(sends, sent{from, to, id})
			sim.Schedule(at-sim.Now(), func() { nw.Send(from, to, id) })
		}
		sim.RunUntilIdle()

		// Invariant 1: no delivery across an active cut.
		for _, d := range got {
			if sched.Cut(d.at, d.from, d.to) {
				t.Fatalf("message %d delivered %d→%d at %d across an active cut", d.id, d.from, d.to, d.at)
			}
		}
		// Invariant 2: exactly the messages that can ever be delivered
		// are delivered, once each.
		seen := map[int]int{}
		for _, d := range got {
			seen[d.id]++
		}
		for _, s := range sends {
			// A message is lost only if DeliveryTime says so for its
			// send; we can't recompute the exact want time (random
			// delay), so check the weaker but exact property: lost
			// messages must cross a permanent cut, delivered ones must
			// appear exactly once.
			switch seen[s.id] {
			case 0:
				permanent := false
				for i := range sched.Windows {
					w := &sched.Windows[i]
					if w.End == NoHeal && w.sideOf(s.from) != w.sideOf(s.to) {
						permanent = true
					}
				}
				if !permanent {
					t.Fatalf("message %d (%d→%d) never delivered though no permanent cut separates the link", s.id, s.from, s.to)
				}
			case 1:
				// ok
			default:
				t.Fatalf("message %d delivered %d times", s.id, seen[s.id])
			}
		}
	})
}
