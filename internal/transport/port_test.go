package transport

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/replica"
	"repro/internal/simnet"
)

// Both kinds of port are replica.Nets.
var (
	_ replica.Net = simnet.Port{}
	_ replica.Net = (*Node)(nil)
)

// portCtl is what the port contract script needs from a deployment,
// simulated or live, besides the ports themselves.
type portCtl struct {
	// on runs fn on process p's event loop and returns once it ran.
	on func(p int, fn func())
	// crash takes p down; restart brings it back up.
	crash, restart func(p int)
	// quiesce returns once every message sent and every timer armed so
	// far has run (the script's handlers send nothing).
	quiesce func()
}

// simPorts hands out each process's simnet.Port on one network. Its
// crash edges open and close a window of the network's schedule at the
// current virtual time, a tick apart.
func simPorts(_ *testing.T, n int) ([]replica.Net, portCtl) {
	sim := simnet.NewSim(1)
	nw := simnet.NewNetwork(sim, n, simnet.Synchronous{Delta: 2})
	sched := &simnet.Schedule{}
	nw.SetSchedule(sched)
	ports := make([]replica.Net, n)
	for p := range ports {
		ports[p] = nw.Port(p)
	}
	return ports, portCtl{
		on: func(p int, fn func()) { sim.Schedule(0, fn); sim.RunUntilIdle() },
		crash: func(p int) {
			sim.Run(sim.Now() + 1)
			sched.Crashes = append(sched.Crashes, simnet.CrashWindow{Proc: p, Start: sim.Now(), End: simnet.NoHeal})
		},
		restart: func(p int) {
			sim.Run(sim.Now() + 1)
			sched.Crashes[len(sched.Crashes)-1].End = sim.Now()
		},
		quiesce: func() { sim.RunUntilIdle() },
	}
}

// chanPorts deploys n bare nodes on the chan carrier, each its own
// process's port, with their event loops started.
func chanPorts(t *testing.T, n int) ([]replica.Net, portCtl) {
	tr, err := New("chan", NewRoster(n, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, n)
	ports := make([]replica.Net, n)
	for p := range nodes {
		if nodes[p], err = NewNode(p, tr); err != nil {
			t.Fatal(err)
		}
		ports[p] = nodes[p]
	}
	started := false
	start := func() {
		if started {
			return
		}
		started = true
		for p, nd := range nodes {
			if err := tr.Dial(p); err != nil {
				t.Fatal(err)
			}
			nd.Start()
		}
		t.Cleanup(func() {
			for _, nd := range nodes {
				nd.Stop()
			}
			tr.Close()
		})
	}
	return ports, portCtl{
		// The handlers are registered before the first step, so the loops
		// start there.
		on:      func(p int, fn func()) { start(); nodes[p].Do(fn) },
		crash:   func(p int) { nodes[p].down.Store(true) },
		restart: func(p int) { nodes[p].down.Store(false) },
		quiesce: func() {
			st := tr.(statser)
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				if sent, delivered := st.Stats(); sent == delivered {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the carrier did not drain within 10 s")
				}
			}
			for _, nd := range nodes {
				nd.Do(func() {}) // every delivery queued before it has run
			}
		},
	}
}

// goroutineID is the running goroutine's number, read off its stack
// header ("goroutine 18 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// tagged is the script's payload: what was sent and by whom, so a
// handler can hold m.From to the sender.
type tagged struct {
	kind   string
	sender int
}

// TestPortContract runs one script over simulated and live ports: a process
// sends and broadcasts only as itself (loopback included), a broadcast
// reaches every process, Down is true exactly while the process is
// crashed, and After runs its callback on the process's own loop.
func TestPortContract(t *testing.T) {
	const n = 4
	for _, kind := range []struct {
		name  string
		ports func(*testing.T, int) ([]replica.Net, portCtl)
	}{{"simnet.Port", simPorts}, {"chan Node", chanPorts}} {
		t.Run(kind.name, func(t *testing.T) {
			ports, ctl := kind.ports(t, n)
			got := make([][]simnet.Message, n) // got[p] is touched on p's loop only
			for p, port := range ports {
				port.AddHandler(func(m simnet.Message) { got[p] = append(got[p], m) })
			}

			for p, port := range ports {
				ctl.on(p, func() {
					port.Send((p+1)%n, tagged{"send", p})
					port.Send(p, tagged{"self", p})
					port.Broadcast(tagged{"bcast", p})
				})
			}
			ctl.quiesce()
			for p := range ports {
				count := map[tagged]int{}
				for _, m := range got[p] {
					tag := m.Payload.(tagged)
					if m.From != tag.sender || m.To != p {
						t.Errorf("p%d handled %s from p%d as a message %d→%d", p, tag.kind, tag.sender, m.From, m.To)
					}
					count[tag]++
				}
				want := map[tagged]int{{"send", (p + n - 1) % n}: 1, {"self", p}: 1}
				for q := 0; q < n; q++ {
					want[tagged{"bcast", q}] = 1
				}
				if len(count) != len(want) || len(got[p]) != len(want) {
					t.Errorf("p%d handled %v, want each of %v once", p, count, want)
				}
				for tag, c := range want {
					if count[tag] != c {
						t.Errorf("p%d handled %s from p%d %d times, want %d", p, tag.kind, tag.sender, count[tag], c)
					}
				}
			}

			downs := func(step string, crashed int) {
				for p, port := range ports {
					var down bool
					ctl.on(p, func() { down = port.Down() })
					if down != (p == crashed) {
						t.Errorf("%s: p%d Down() = %v", step, p, down)
					}
				}
			}
			downs("before the crash", -1)
			ctl.crash(1)
			downs("p1 crashed", 1)
			ctl.restart(1)
			downs("p1 restarted", -1)

			loop := make([]string, n)
			onLoop := make([]bool, n)
			fired := make(chan int, n)
			for p, port := range ports {
				ctl.on(p, func() {
					loop[p] = goroutineID()
					port.After(1, func() {
						onLoop[p] = goroutineID() == loop[p]
						fired <- p
					})
				})
			}
			ctl.quiesce()
			for range ports {
				select {
				case p := <-fired:
					if !onLoop[p] {
						t.Errorf("p%d's timer ran off its own loop", p)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("a timer did not fire within 10 s")
				}
			}
		})
	}
}
