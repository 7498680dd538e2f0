package replica

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
)

// downAt is the oracle ArmCrashes is held to: process p is down at time
// t exactly when some window of p covers t.
func downAt(windows []CrashWindow, t int64, p int) bool {
	for _, w := range windows {
		if w.Proc == p && t >= w.Start && (w.End == simnet.NoHeal || t < w.End) {
			return true
		}
	}
	return false
}

// FuzzCrashSchedule mirrors FuzzPartitionSchedule for the crash model,
// run through the one crash scheduler over simnet ports: (1) no delivery
// ever reaches a process while it is down, and nothing a down process
// sends escapes; (2) each continuous down-span fires exactly one crash
// edge at its start and — unless permanent — exactly one restart edge at
// its end, after which Down(p) is false; (3) every message whose
// endpoints are both up at send and delivery time is delivered exactly
// once.
func FuzzCrashSchedule(f *testing.F) {
	f.Add(uint64(1), int64(10), int64(30), int64(20), int64(60), uint8(6), uint8(12), true)
	f.Add(uint64(9), int64(0), int64(5), int64(5), int64(9), uint8(3), uint8(40), false)
	f.Add(uint64(42), int64(7), int64(-1), int64(0), int64(0), uint8(4), uint8(25), true)
	// One process, two windows: same start, then touching.
	f.Add(uint64(5), int64(10), int64(20), int64(10), int64(30), uint8(0), uint8(30), false)
	f.Add(uint64(6), int64(10), int64(20), int64(30), int64(15), uint8(1), uint8(30), true)
	f.Fuzz(func(t *testing.T, seed uint64, s1, e1, s2, e2 int64, nprocs, nmsgs uint8, fifo bool) {
		n := int(nprocs%6) + 2
		norm := func(s, e int64) (int64, int64) {
			if s < 0 {
				s = -s
			}
			s %= 80
			if e != simnet.NoHeal {
				if e < 0 {
					e = -e
				}
				e = s + e%80
			}
			return s, e
		}
		s1, e1 = norm(s1, e1)
		s2, e2 = norm(s2, e2)
		// Two windows: on proc 0 and proc n-1 when n > 3, both on proc 0
		// otherwise — exercising the merge of one process's windows.
		p2 := n - 1
		if n <= 3 {
			p2 = 0
		}
		windows := []CrashWindow{
			{Proc: 0, Start: s1, End: e1},
			{Proc: p2, Start: s2, End: e2},
		}

		sim := simnet.NewSim(seed)
		g := NewGroup(sim, n, simnet.Synchronous{Delta: 2}, core.LongestChain{})
		type delivery struct {
			at       int64
			from, to int
			id       int // -1 for the replicas' own catch-up traffic
		}
		var got []delivery
		for p := 0; p < n; p++ {
			g.Net.AddHandler(p, func(m simnet.Message) {
				id, ok := m.Payload.(int)
				if !ok {
					id = -1
				}
				got = append(got, delivery{sim.Now(), m.From, m.To, id})
			})
		}
		g.Net.SetFIFO(fifo)
		g.Net.RecordFaults(true)
		g.EnableCrashRecovery(false, windows)

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
			sim.Schedule(at-sim.Now(), func() { g.Net.Send(from, to, id) })
		}
		sim.RunUntilIdle()

		// Invariant 1: no delivery to (or surviving send from) a down
		// process.
		for _, d := range got {
			if downAt(windows, d.at, d.to) {
				t.Fatalf("message %d delivered to crashed p%d at %d", d.id, d.to, d.at)
			}
		}
		bySend := map[int]sent{}
		for _, s := range sends {
			bySend[s.id] = s
		}
		for _, d := range got {
			if s, ok := bySend[d.id]; ok && downAt(windows, s.at, s.from) {
				t.Fatalf("message %d sent by crashed p%d at %d was delivered", d.id, s.from, s.at)
			}
		}

		// Invariant 2: exactly one crash edge at the start of each
		// continuous down-span and one restart edge at its end. The
		// spans come from the oracle, the edges from the fault log.
		const horizon = 400
		for p := 0; p < n; p++ {
			var want []string
			wasDown := false
			for tt := int64(0); tt < horizon; tt++ {
				down := downAt(windows, tt, p)
				if down && !wasDown {
					want = append(want, fmt.Sprintf("@%d crash p%d", tt, p))
				}
				if !down && wasDown {
					want = append(want, fmt.Sprintf("@%d restart p%d", tt, p))
				}
				wasDown = down
			}
			var edges []string
			for _, e := range g.Net.FaultEvents() {
				if (e.Kind == "crash" || e.Kind == "restart") && e.Detail == fmt.Sprintf("p%d", p) {
					edges = append(edges, e.String())
				}
			}
			if fmt.Sprint(edges) != fmt.Sprint(want) {
				t.Fatalf("p%d: edges %v, down-spans want %v (%v)", p, edges, want, windows)
			}
			if g.Procs[p].Down() != wasDown {
				t.Fatalf("p%d: Down() = %v after the run, the windows say %v", p, g.Procs[p].Down(), wasDown)
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
				senderDown := downAt(windows, s.at, s.from)
				destEverDown := windows[0].Proc == s.to || windows[1].Proc == s.to
				if !senderDown && !destEverDown {
					t.Fatalf("message %d (%d→%d @%d) lost with no crash on either endpoint", s.id, s.from, s.to, s.at)
				}
			}
		}
	})
}
