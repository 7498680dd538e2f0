package simnet

import (
	"fmt"
	"testing"
)

// shardOutcome is everything a run observably produces: per-process
// delivery traces (the only order a process can see), the fault log,
// the network counters and the executed step count. A sharded run is
// specified to reproduce the serial run's outcome byte for byte.
type shardOutcome struct {
	traces  [][]string
	faults  []string
	sent    int
	deliv   int
	dropped int
	steps   int
}

// cascadeMsg is the traced payload: id identifies the originating seed
// send, hop counts the forwarding cascade.
type cascadeMsg struct {
	id, hop int
}

// runCascade executes a deterministic cascading-flood workload under
// the given shard count: seed timers inject messages (serial-path
// sends), every shard-safe handler traces its deliveries, forwards the
// cascade to the next process (staged sends during parallel phases —
// including delay-0 loopbacks) and notes a fault event every third
// receipt (staged fault-log appends). Faults and crashes cut across
// the shard boundaries: the split separates the lower half (shards 0..)
// from the rest, and the crash windows take out one process per half.
func runCascade(seed uint64, n, shards, hops, seeds int, fifo bool, sched *Schedule) shardOutcome {
	sim := NewSim(seed)
	nw := NewNetwork(sim, n, Synchronous{Delta: 2})
	nw.SetFIFO(fifo)
	nw.RecordFaults(true)
	if sched != nil {
		nw.SetSchedule(sched)
	}

	traces := make([][]string, n)
	for p := 0; p < n; p++ {
		p := p
		count := 0
		nw.AddShardSafeHandler(p, func(m Message) {
			msg := m.Payload.(cascadeMsg)
			traces[p] = append(traces[p], fmt.Sprintf("t%d %d→%d id%d hop%d", sim.Now(), m.From, m.To, msg.id, msg.hop))
			count++
			if count%3 == 0 {
				nw.NoteFault(FaultEvent{Time: sim.Now(), Kind: "mark", From: p, To: -1, Detail: fmt.Sprintf("recv%d", count)})
			}
			if msg.hop < hops {
				next := (p + 1) % n
				if msg.hop%2 == 1 {
					next = p // loopback leg: delay-0 self delivery
				}
				nw.Send(p, next, cascadeMsg{id: msg.id, hop: msg.hop + 1})
			}
		})
	}
	nw.EnableSharding(shards)

	rng := sim.RNG().Split()
	for i := 0; i < seeds; i++ {
		at := int64(rng.Intn(40))
		from := rng.Intn(n)
		to := rng.Intn(n)
		id := i
		sim.At(at, func() { nw.Send(from, to, cascadeMsg{id: id}) })
	}
	steps := sim.RunUntilIdle()

	var faults []string
	for _, e := range nw.FaultEvents() {
		faults = append(faults, fmt.Sprintf("%d %s %d→%d %s", e.Time, e.Kind, e.From, e.To, e.Detail))
	}
	sent, deliv, dropped := nw.Stats()
	return shardOutcome{traces: traces, faults: faults, sent: sent, deliv: deliv, dropped: dropped, steps: steps}
}

// diffOutcome fails the test on the first observable divergence between
// the serial and sharded outcomes.
func diffOutcome(t *testing.T, serial, sharded shardOutcome, k int) {
	t.Helper()
	for p := range serial.traces {
		a, b := serial.traces[p], sharded.traces[p]
		if len(a) != len(b) {
			t.Fatalf("shards=%d: proc %d saw %d deliveries, serial saw %d\nserial: %v\nsharded: %v", k, p, len(b), len(a), a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("shards=%d: proc %d delivery %d diverged: serial %q, sharded %q", k, p, i, a[i], b[i])
			}
		}
	}
	if len(serial.faults) != len(sharded.faults) {
		t.Fatalf("shards=%d: fault log length %d, serial %d\nserial: %v\nsharded: %v",
			k, len(sharded.faults), len(serial.faults), serial.faults, sharded.faults)
	}
	for i := range serial.faults {
		if serial.faults[i] != sharded.faults[i] {
			t.Fatalf("shards=%d: fault log entry %d diverged: serial %q, sharded %q", k, i, serial.faults[i], sharded.faults[i])
		}
	}
	if serial.sent != sharded.sent || serial.deliv != sharded.deliv || serial.dropped != sharded.dropped {
		t.Fatalf("shards=%d: counters (sent %d, delivered %d, dropped %d), serial (%d, %d, %d)",
			k, sharded.sent, sharded.deliv, sharded.dropped, serial.sent, serial.deliv, serial.dropped)
	}
	if serial.steps != sharded.steps {
		t.Fatalf("shards=%d: %d steps executed, serial %d", k, sharded.steps, serial.steps)
	}
}

// cascadeSchedule builds the fault+crash schedule the cascade tests
// share: a healed split of the lower half, an eclipse of process 1, and
// two crash windows (one per split side) so every staged code path —
// deferral, partition loss, crash loss — crosses a shard boundary.
func cascadeSchedule(n int, s1, e1, s2, e2 int64) *Schedule {
	var left []int
	for p := 0; p < n/2; p++ {
		left = append(left, p)
	}
	sched := NewSchedule(SplitWindow(s1, e1, n, left), EclipseWindow(s2, e2, n, 1%n))
	sched.Crashes = []CrashWindow{{Proc: 0, Start: s1, End: s1 + 18}, {Proc: n - 1, Start: s2, End: s2 + 12}}
	return sched
}

// TestShardedEqualsSerialCascade pins the core determinism claim on a
// deterministic workload: for every shard count, the sharded scheduler
// reproduces the serial run's per-process traces, fault log, counters
// and step count exactly — under FIFO links, partition windows and
// crash windows all crossing shard boundaries.
func TestShardedEqualsSerialCascade(t *testing.T) {
	const n = 8
	for _, fifo := range []bool{false, true} {
		sched := cascadeSchedule(n, 10, 25, 18, 33)
		serial := runCascade(7, n, 1, 4, 12, fifo, sched)
		if serial.deliv == 0 || serial.dropped == 0 {
			t.Fatalf("workload too tame: delivered %d, dropped %d — want both nonzero", serial.deliv, serial.dropped)
		}
		for _, k := range []int{2, 3, 4, 8} {
			sharded := runCascade(7, n, k, 4, 12, fifo, cascadeSchedule(n, 10, 25, 18, 33))
			diffOutcome(t, serial, sharded, k)
		}
	}
}

// TestShardSafeSchedulePanics pins the contract violation: a shard-safe
// handler calling Sim.Schedule during a parallel phase must panic
// (timer creation is order-sensitive engine state).
func TestShardSafeSchedulePanics(t *testing.T) {
	sim := NewSim(1)
	nw := NewNetwork(sim, 4, Synchronous{Delta: 1})
	panicked := false
	nw.AddShardSafeHandler(2, func(m Message) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		sim.Schedule(1, func() {})
	})
	nw.EnableSharding(2)
	sim.At(1, func() { nw.Send(0, 2, "x") })
	sim.RunUntilIdle()
	if !panicked {
		t.Fatal("Schedule from a shard-safe handler did not panic")
	}
}

// TestLateAddHandlerMigratesQueuedDeliveries pins the serial-only
// migration: a plain AddHandler registered mid-run (while deliveries to
// that process sit in a shard heap) moves them to the global heap with
// their (time, seq) positions intact — nothing is lost or reordered.
func TestLateAddHandlerMigratesQueuedDeliveries(t *testing.T) {
	sim := NewSim(3)
	nw := NewNetwork(sim, 4, Synchronous{Delta: 5})
	var got []string
	for p := 0; p < 4; p++ {
		p := p
		nw.AddShardSafeHandler(p, func(m Message) {
			got = append(got, fmt.Sprintf("safe t%d →%d %v", sim.Now(), m.To, m.Payload))
		})
	}
	nw.EnableSharding(2)
	// Seed deliveries to proc 3 that will still be queued at t=1.
	sim.At(0, func() {
		nw.Send(0, 3, "a")
		nw.Send(1, 3, "b")
	})
	// Mid-run, from a (serial) timer: pin proc 3 to the serial path.
	// Note: got gains a second writer only after this point, and proc
	// 3's deliveries now run serially, so the appends stay race-free.
	sim.At(1, func() {
		nw.AddHandler(3, func(m Message) {
			got = append(got, fmt.Sprintf("plain t%d →%d %v", sim.Now(), m.To, m.Payload))
		})
	})
	sim.RunUntilIdle()
	// Both deliveries arrive, each seen by both handlers (safe first —
	// registration order), in send order under the synchronous delays.
	want := 4
	if len(got) != want {
		t.Fatalf("saw %d handler invocations, want %d: %v", len(got), want, got)
	}
	for i := 0; i+1 < len(got); i += 2 {
		if got[i][:4] != "safe" || got[i+1][:5] != "plain" {
			t.Fatalf("handler order diverged at %d: %v", i, got)
		}
	}
}

// TestEnableShardingClamps pins the edge cases: k above n clamps to n,
// and k ≤ 1 leaves the serial scheduler (Shards reports 1).
func TestEnableShardingClamps(t *testing.T) {
	sim := NewSim(1)
	nw := NewNetwork(sim, 3, Synchronous{Delta: 1})
	nw.EnableSharding(0)
	if nw.Shards() != 1 {
		t.Fatalf("Shards() = %d after EnableSharding(0), want 1", nw.Shards())
	}
	nw.EnableSharding(64)
	if nw.Shards() != 3 {
		t.Fatalf("Shards() = %d after EnableSharding(64) on n=3, want 3", nw.Shards())
	}
}

// FuzzShardMerge fuzzes the merge-barrier invariants across random
// workloads, shard counts, fault windows and crash windows:
//
//  1. no event is processed out of global virtual-time order — each
//     process's delivery trace must match the serial run's exactly;
//  2. cross-shard sends are delivered exactly once — counters and
//     per-process traces must match the serial run's;
//  3. fault and crash windows are respected across shard boundaries —
//     the fault log (cuts, heals, deferrals, losses, handler notes)
//     must match the serial run's entry for entry, and no delivery may
//     land across an active cut or at a crashed process.
func FuzzShardMerge(f *testing.F) {
	f.Add(uint64(1), int64(10), int64(30), int64(20), int64(60), uint8(6), uint8(3), uint8(12), true)
	f.Add(uint64(9), int64(0), int64(5), int64(5), int64(9), uint8(3), uint8(2), uint8(24), false)
	f.Add(uint64(42), int64(7), int64(-1), int64(0), int64(0), uint8(9), uint8(4), uint8(8), true)
	f.Fuzz(func(t *testing.T, seed uint64, s1, e1, s2, e2 int64, nprocs, shards, nmsgs uint8, fifo bool) {
		n := int(nprocs%8) + 2
		k := int(shards%6) + 2
		seeds := int(nmsgs%24) + 1
		norm := func(s, e int64) (int64, int64) {
			if s < 0 {
				s = -s
			}
			s %= 60
			if e != NoHeal {
				if e < 0 {
					e = -e
				}
				e = s + e%60
			}
			return s, e
		}
		s1, e1 = norm(s1, e1)
		s2, e2 = norm(s2, e2)

		mk := func() *Schedule { return cascadeSchedule(n, s1, e1, s2, e2) }
		serial := runCascade(seed, n, 1, 3, seeds, fifo, mk())
		sharded := runCascade(seed, n, k, 3, seeds, fifo, mk())
		diffOutcome(t, serial, sharded, k)

		// Direct window invariants on the sharded run (independent of
		// the serial reference): replay the trace against the schedule.
		sched := mk()
		for p, trace := range sharded.traces {
			last := int64(-1)
			for _, line := range trace {
				var at int64
				var from, to, id, hop int
				if _, err := fmt.Sscanf(line, "t%d %d→%d id%d hop%d", &at, &from, &to, &id, &hop); err != nil {
					t.Fatalf("unparsable trace line %q: %v", line, err)
				}
				if at < last {
					t.Fatalf("proc %d saw time regress (%d after %d): %v", p, at, last, trace)
				}
				last = at
				if sched.Cut(at, from, to) {
					t.Fatalf("delivery %q crossed an active cut", line)
				}
				if sched.DownAt(at, to) {
					t.Fatalf("delivery %q reached a crashed process", line)
				}
			}
		}
	})
}
