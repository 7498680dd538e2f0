package replica

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/simnet"
)

// treeDump flattens a tree to a canonical string for equality checks.
func treeDump(t *core.Tree) string {
	var b strings.Builder
	for _, blk := range t.Blocks() {
		fmt.Fprintf(&b, "%s<-%s;", blk.ID.Short(), blk.Parent.Short())
	}
	return b.String()
}

// checkTreeReads asserts the tree's O(1) reads — MaxForkDegree and the
// Longest/Single heads — equal a recomputation from its blocks
// and leaves. Restore re-attaches in (height, ID) order, not arrival
// order, and must arrive at the same indices.
func checkTreeReads(t testing.TB, tr *core.Tree) {
	t.Helper()
	maxFork := 0
	for _, b := range tr.Blocks() {
		if d := len(tr.Children(b.ID)); d > maxFork {
			maxFork = d
		}
	}
	if got := tr.MaxForkDegree(); got != maxFork {
		t.Fatalf("MaxForkDegree %d, recomputed %d", got, maxFork)
	}
	var longest core.BlockID
	for _, id := range tr.Leaves() { // ascending IDs: >= keeps the largest on ties
		if longest == "" || tr.Block(id).Height >= tr.Block(longest).Height {
			longest = id
		}
	}
	for _, sel := range []core.Selector{core.LongestChain{}, core.SingleChain{}} {
		if got := core.HeadOf(sel, tr).ID; got != longest {
			t.Fatalf("%s head %s, recomputed %s", sel.Name(), got.Short(), longest.Short())
		}
	}
}

// snapshotDump renders a snapshot's pending buffer for equality checks.
func pendingDump(p *Process) string {
	var b strings.Builder
	for _, blk := range p.Snapshot().Pending {
		fmt.Fprintf(&b, "%s<-%s;", blk.ID.Short(), blk.Parent.Short())
	}
	return b.String()
}

// crashRig builds a 3-proc group where proc 0 appends a block every 5
// ticks for `rounds` rounds, proc 2 crashes during [30, 60), and crash
// recovery runs with the given durability.
func crashRig(t *testing.T, durable bool, rounds int) (*simnet.Sim, *Group, map[string]string) {
	t.Helper()
	sim := simnet.NewSim(11)
	g := NewGroup(sim, 3, simnet.Synchronous{Delta: 2}, core.LongestChain{})
	g.SetPredicate(core.WellFormed{})
	g.Net.RecordFaults(true)
	g.EnableCrashRecovery(durable, []CrashWindow{{Proc: 2, Start: 30, End: 60}})

	parent := core.Genesis()
	for i := 0; i < rounds; i++ {
		b := mkBlock(parent, 0, i)
		parent = b
		sim.Schedule(int64(i*5+1), func() { g.Procs[0].AppendLocal(b) })
	}

	// Probes at the crash edges, scheduled after EnableCrashRecovery
	// armed them so they observe the post-snapshot / post-restore state.
	probes := map[string]string{}
	sim.Schedule(30-sim.Now(), func() { probes["atCrash"] = treeDump(g.Procs[2].Tree()) })
	sim.Schedule(60-sim.Now(), func() {
		probes["atRestart"] = treeDump(g.Procs[2].Tree())
		checkTreeReads(t, g.Procs[2].Tree())
	})
	return sim, g, probes
}

func TestDurableRestoreEqualsPreCrashTree(t *testing.T) {
	sim, g, probes := crashRig(t, true, 16)
	sim.RunUntilIdle()

	if probes["atCrash"] == "" || probes["atRestart"] == "" {
		t.Fatal("crash/restart probes did not fire")
	}
	if probes["atRestart"] != probes["atCrash"] {
		t.Fatalf("durable restore differs from pre-crash tree:\npre:  %s\npost: %s",
			probes["atCrash"], probes["atRestart"])
	}
	// Catch-up must still converge the replica with the rest.
	if got, want := treeDump(g.Procs[2].Tree()), treeDump(g.Procs[0].Tree()); got != want {
		t.Fatalf("recovered replica did not converge:\np0: %s\np2: %s", want, got)
	}
	st := g.Recovery
	if st.Crashes != 1 || st.Restarts != 1 || st.DurableRestores != 1 || st.AmnesiaResets != 0 {
		t.Fatalf("recovery stats %+v, want one durable crash/restart", st)
	}
}

func TestAmnesiaRejoinsFromGenesisAndResyncs(t *testing.T) {
	sim, g, probes := crashRig(t, false, 16)
	sim.RunUntilIdle()

	// Amnesia restart begins from a bare genesis tree.
	if want := treeDump(core.NewTree()); probes["atRestart"] != want {
		t.Fatalf("amnesia restart tree = %s, want bare genesis", probes["atRestart"])
	}
	if got, want := treeDump(g.Procs[2].Tree()), treeDump(g.Procs[0].Tree()); got != want {
		t.Fatalf("amnesia replica did not resync:\np0: %s\np2: %s", want, got)
	}
	st := g.Recovery
	if st.AmnesiaResets != 1 || st.DurableRestores != 0 {
		t.Fatalf("recovery stats %+v, want one amnesia reset", st)
	}
}

func TestDurableResyncCheaperThanAmnesia(t *testing.T) {
	simD, gD, _ := crashRig(t, true, 16)
	simD.RunUntilIdle()
	simA, gA, _ := crashRig(t, false, 16)
	simA.RunUntilIdle()
	if gA.Recovery.ResyncBlocks <= gD.Recovery.ResyncBlocks {
		t.Fatalf("amnesia resynced %d blocks, durable %d — amnesia should cost strictly more",
			gA.Recovery.ResyncBlocks, gD.Recovery.ResyncBlocks)
	}
}

func TestCrashStopReplicaStaysDown(t *testing.T) {
	sim := simnet.NewSim(7)
	g := NewGroup(sim, 3, simnet.Synchronous{Delta: 2}, core.LongestChain{})
	g.EnableCrashRecovery(true, []CrashWindow{{Proc: 1, Start: 20, End: simnet.NoHeal}})

	parent := core.Genesis()
	for i := 0; i < 10; i++ {
		b := mkBlock(parent, 0, i)
		parent = b
		sim.Schedule(int64(i*5+1), func() { g.Procs[0].AppendLocal(b) })
	}
	sim.Run(200)

	if g.Recovery.Restarts != 0 {
		t.Fatalf("crash-stop fired %d restarts", g.Recovery.Restarts)
	}
	if !g.Procs[1].Down() {
		t.Fatal("crash-stopped replica reports up")
	}
	if g.Procs[1].Read() != nil {
		t.Fatal("crash-stopped replica served a read")
	}
	if g.Procs[1].AppendLocal(mkBlock(parent, 1, 99)) {
		t.Fatal("crash-stopped replica accepted an append")
	}
	// Its tree froze at the crash: only blocks delivered before t=20.
	if got, all := g.Procs[1].Tree().Len(), g.Procs[0].Tree().Len(); got >= all {
		t.Fatalf("crash-stopped tree has %d blocks, all %d — should have missed the tail", got, all)
	}
}

// TestCatchUpRetriesWhenInventoryLost drops every inv reply to the
// recovering process until well past the first backoff: the first
// solicit goes unanswered and the bounded retry must re-solicit and
// eventually converge.
func TestCatchUpRetriesWhenInventoryLost(t *testing.T) {
	sim := simnet.NewSim(3)
	g := NewGroup(sim, 3, simnet.Synchronous{Delta: 2}, core.LongestChain{})
	g.SetPredicate(core.WellFormed{})
	// Drop inv replies to p2 until t=50 (past restart at 40 and the
	// first backoff window), so the initial solicit is wasted.
	g.Net.SetDrop(func(m simnet.Message) bool {
		if _, ok := m.Payload.(InvMsg); !ok {
			return false
		}
		return m.To == 2 && sim.Now() < 50
	})
	g.EnableCrashRecovery(false, []CrashWindow{{Proc: 2, Start: 10, End: 40}})

	parent := core.Genesis()
	for i := 0; i < 6; i++ {
		b := mkBlock(parent, 0, i)
		parent = b
		sim.Schedule(int64(i*4+1), func() { g.Procs[0].AppendLocal(b) })
	}
	sim.RunUntilIdle()

	if g.Recovery.Retries == 0 {
		t.Fatalf("no retries recorded (stats %+v) though the first solicit was unanswered", g.Recovery)
	}
	if got, want := treeDump(g.Procs[2].Tree()), treeDump(g.Procs[0].Tree()); got != want {
		t.Fatalf("retrying catch-up did not converge:\np0: %s\np2: %s", want, got)
	}
}

// catchUpRig is one process over a fake carrier with a fake timer: the
// test decides when a block arrives, when the process is down and when
// each armed backoff fires.
type catchUpRig struct {
	p        *Process
	rec      *CrashRecovery
	stats    RecoveryStats
	down     bool
	unit     int64    // one tick in the timer's own unit
	solicits int      // SyncMsg broadcasts seen by the carrier
	waits    []int64  // every backoff armed, in the timer's own unit
	timers   []func() // armed and not yet fired, oldest first
	done     int
	chain    *core.Block
}

func (r *catchUpRig) AddHandler(simnet.Handler) {}
func (r *catchUpRig) Send(int, any)             {}
func (r *catchUpRig) Down() bool                { return r.down }
func (r *catchUpRig) SetDown(down bool)         { r.down = down }
func (r *catchUpRig) Broadcast(payload any) {
	if _, ok := payload.(SyncMsg); ok {
		r.solicits++
	}
}
func (r *catchUpRig) After(ticks int64, fn func()) {
	r.waits = append(r.waits, ticks*r.unit)
	r.timers = append(r.timers, fn)
}

// fire runs the oldest armed backoff.
func (r *catchUpRig) fire() {
	fn := r.timers[0]
	r.timers = r.timers[1:]
	fn()
}

// gain delivers one new block extending the replica's chain.
func (r *catchUpRig) gain() {
	r.chain = mkBlock(r.chain, 1, r.chain.Height)
	r.p.applyUpdate(r.chain)
}

func (r *catchUpRig) crash()   { r.rec.Crash(); r.SetDown(true) }
func (r *catchUpRig) restart() { r.SetDown(false); r.rec.Restart() }

// TestCatchUpMachineUnderFakeTimer drives the one catch-up state machine
// through both carriers' timer shapes: the simulator's (backoffs are
// virtual ticks, scheduled as they are) and a live node's (Node.After
// scales ticks to a wall-clock duration).
func TestCatchUpMachineUnderFakeTimer(t *testing.T) {
	const liveTick = 12500 * time.Microsecond // transport.Tick; importing it here would be a cycle
	shapes := []struct {
		name string
		unit int64 // one tick in the timer's unit
	}{{"virtual-ticks", 1}, {"wall-clock", int64(liveTick)}}
	cases := []struct {
		name   string
		script func(r *catchUpRig)
		want   RecoveryStats
		waits  []int64 // in ticks
		done   int
	}{
		{
			name:   "progress after the first solicit ends it",
			script: func(r *catchUpRig) { r.crash(); r.restart(); r.gain(); r.fire() },
			want:   RecoveryStats{Crashes: 1, Restarts: 1, DurableRestores: 1, Solicits: 1, ResyncBlocks: 1},
			waits:  []int64{8},
			done:   1,
		},
		{
			name:   "no progress solicits the bounded number of times",
			script: func(r *catchUpRig) { r.crash(); r.restart(); r.fire(); r.fire(); r.fire() },
			want:   RecoveryStats{Crashes: 1, Restarts: 1, DurableRestores: 1, Solicits: 3, Retries: 2},
			waits:  []int64{8, 16, 32},
			done:   1,
		},
		{
			name: "a second crash during the backoff, timer fires while down",
			script: func(r *catchUpRig) {
				r.crash()
				r.restart()
				r.gain()
				r.crash()
				r.fire() // the first recovery's backoff: it ended with the crash
				r.restart()
			},
			want:  RecoveryStats{Crashes: 2, Restarts: 2, DurableRestores: 2, Solicits: 2},
			waits: []int64{8, 8},
		},
		{
			name: "a second crash during the backoff, timer fires after the restart",
			script: func(r *catchUpRig) {
				r.crash()
				r.restart()
				r.gain()
				r.crash()
				r.restart()
				r.fire() // stale: must not count the block beside the new recovery
				r.gain()
				r.fire()
			},
			want:  RecoveryStats{Crashes: 2, Restarts: 2, DurableRestores: 2, Solicits: 2, ResyncBlocks: 1},
			waits: []int64{8, 8},
			done:  1,
		},
	}
	for _, shape := range shapes {
		for _, c := range cases {
			t.Run(shape.name+"/"+c.name, func(t *testing.T) {
				r := &catchUpRig{chain: core.Genesis(), unit: shape.unit}
				r.p = NewProcess(0, r, nil, history.NewRecorder(1, nil))
				r.rec = NewCrashRecovery(r.p, true, &r.stats, func() { r.done++ })
				c.script(r)

				if r.stats != c.want {
					t.Errorf("stats %+v, want %+v", r.stats, c.want)
				}
				if r.solicits != c.want.Solicits {
					t.Errorf("carrier saw %d solicits, stats count %d", r.solicits, c.want.Solicits)
				}
				wantWaits := make([]int64, len(c.waits))
				for i, w := range c.waits {
					wantWaits[i] = w * shape.unit
				}
				if !slices.Equal(r.waits, wantWaits) {
					t.Errorf("backoffs %v, want %v", r.waits, wantWaits)
				}
				if r.done != c.done {
					t.Errorf("done called %d times, want %d", r.done, c.done)
				}
			})
		}
	}
}

// TestSnapshotRoundTripsPending crashes a process while an orphan sits
// in its pending buffer; the durable restore must bring the orphan back
// so the parent's later arrival flushes it.
func TestSnapshotRoundTripsPending(t *testing.T) {
	sim := simnet.NewSim(5)
	g := NewGroup(sim, 2, simnet.Synchronous{Delta: 1}, core.LongestChain{})
	p := g.Procs[0]

	b1 := mkBlock(core.Genesis(), 1, 0)
	b2 := mkBlock(b1, 1, 1)
	// Deliver the child before the parent: b2 is buffered.
	p.applyUpdate(b2)
	if p.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", p.PendingCount())
	}
	before := pendingDump(p)

	snap := p.Snapshot()
	p.Reset()
	if p.PendingCount() != 0 {
		t.Fatal("reset kept pending blocks")
	}
	p.Restore(snap)
	if got := pendingDump(p); got != before {
		t.Fatalf("pending buffer after restore = %q, want %q", got, before)
	}
	// Parent arrives: the restored orphan must flush.
	p.applyUpdate(b1)
	if !p.Tree().Has(b2.ID) || p.PendingCount() != 0 {
		t.Fatalf("orphan did not flush after restore: has=%v pending=%d", p.Tree().Has(b2.ID), p.PendingCount())
	}
}

// FuzzDurableRestore drives a random append/crash schedule and asserts
// the satellite invariant: at every restart of a durable replica, the
// restored tree is byte-identical to the tree at the matching crash.
func FuzzDurableRestore(f *testing.F) {
	f.Add(uint64(1), int64(20), int64(50), uint8(10))
	f.Add(uint64(9), int64(0), int64(35), uint8(25))
	f.Add(uint64(42), int64(60), int64(61), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, start, end int64, nblocks uint8) {
		if start < 0 {
			start = -start
		}
		start %= 90
		if end < 0 {
			end = -end
		}
		end = start + 1 + end%90

		sim := simnet.NewSim(seed)
		g := NewGroup(sim, 3, simnet.Synchronous{Delta: 2}, core.LongestChain{})
		g.SetPredicate(core.WellFormed{})
		g.EnableCrashRecovery(true, []CrashWindow{{Proc: 2, Start: start, End: end}})

		// Scheduled right after the edges were armed, the probes are the
		// next events at their instants.
		var atCrash, atRestart string
		p2 := g.Procs[2]
		sim.Schedule(start-sim.Now(), func() { atCrash = treeDump(p2.Tree()) + "|" + pendingDump(p2) })
		sim.Schedule(end-sim.Now(), func() {
			atRestart = treeDump(p2.Tree()) + "|" + pendingDump(p2)
			checkTreeReads(t, p2.Tree())
		})

		rng := sim.RNG().Split()
		parent := core.Genesis()
		n := int(nblocks%30) + 1
		for i := 0; i < n; i++ {
			creator := rng.Intn(2) // procs 0 and 1 mine; 2 is the crasher
			b := mkBlock(parent, creator, i)
			if rng.Intn(3) > 0 {
				parent = b // sometimes fork instead of extending
			}
			at := int64(rng.Intn(100))
			proc := g.Procs[creator]
			sim.Schedule(at-sim.Now(), func() { proc.AppendLocal(b) })
		}
		sim.RunUntilIdle()

		if atCrash == "" {
			t.Fatal("crash probe did not fire")
		}
		if atRestart != atCrash {
			t.Fatalf("durable restore differs from pre-crash state:\npre:  %s\npost: %s", atCrash, atRestart)
		}
	})
}
