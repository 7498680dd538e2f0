package replica

import (
	"sort"

	"repro/internal/core"
)

// This file implements the crash–recovery half of the fault model at
// the replica layer. The carrier takes processes down and up and drops
// a down process's traffic — the one crash model, consensus included.
// Here each process gains a durable snapshot of its replica state and a
// catch-up procedure, timed by its port's After, that runs on restart.
// Two recovery disciplines are modeled:
//
//   - durable: the replica persists its block tree and pending buffer
//     at crash time, restores them on restart, and only has to fetch
//     the blocks it missed while down;
//   - amnesia: the replica rejoins from genesis and must resynchronize
//     the whole tree.
//
// Either way, catch-up rides the anti-entropy layer (antientropy.go): a
// restarted replica solicits inventories from its peers, requests the
// blocks it is missing, and peers resend whole chain segments
// root-first. Solicits retry with doubling backoff a bounded number of
// times, covering inventory replies lost to concurrent partitions or
// further crashes. The durable-vs-amnesia split in recovery traffic and
// consistency violations is what the scenario catalogue measures.

// Snapshot is the durable state of a Process: everything needed to
// restore the replica exactly as it was at crash time. Block pointers
// are shared (blocks are immutable).
type Snapshot struct {
	// Blocks are the attached blocks in (height, ID) order — parents
	// always precede children — genesis excluded.
	Blocks []*core.Block
	// Pending are the buffered orphans (parent not yet arrived), in
	// deterministic (missing-parent, ID) order.
	Pending []*core.Block
	// Rejected is the invalid-block counter.
	Rejected int
	// Mute preserves the withholding flag across the crash.
	Mute bool
}

// Snapshot captures the process's replica state. The caller owns the
// result; it is not affected by later process activity.
func (p *Process) Snapshot() *Snapshot {
	s := &Snapshot{Rejected: p.rejected, Mute: p.Mute}
	for _, b := range p.tree.Blocks() {
		if !b.IsGenesis() {
			s.Blocks = append(s.Blocks, b)
		}
	}
	parents := make([]core.BlockID, 0, len(p.pending))
	for parent := range p.pending {
		parents = append(parents, parent)
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
	for _, parent := range parents {
		kids := append([]*core.Block(nil), p.pending[parent]...)
		sort.Slice(kids, func(i, j int) bool { return kids[i].ID < kids[j].ID })
		s.Pending = append(s.Pending, kids...)
	}
	return s
}

// Restore replaces the process's replica state with the snapshot — the
// durable-recovery path. No history events are recorded: restoring from
// local storage is not communication, and the update events for these
// blocks were already recorded when they first arrived.
func (p *Process) Restore(s *Snapshot) {
	p.reset()
	for _, b := range s.Blocks {
		// Snapshot lists parents before children, and the tree accepted
		// every one of these blocks before the crash.
		_ = p.tree.Attach(b)
	}
	for _, b := range s.Pending {
		if !p.pendingHas[b.ID] {
			p.pendingHas[b.ID] = true
			p.pending[b.Parent] = append(p.pending[b.Parent], b)
			p.pendingN++
		}
	}
	p.rejected = s.Rejected
	p.Mute = s.Mute
}

// Reset discards the replica state down to genesis — the amnesia
// (non-durable) recovery path. The rejected counter survives as a
// cumulative diagnostic.
func (p *Process) Reset() { p.reset() }

func (p *Process) reset() {
	p.tree = core.NewTreeOn(p.Rec.Table().Index())
	p.pending = make(map[core.BlockID][]*core.Block)
	p.pendingHas = make(map[core.BlockID]bool)
	p.pendingN = 0
}

// Down reports whether this process is currently crashed. Harness
// timers call it before acting for the process.
func (p *Process) Down() bool { return p.nw.Down() }

// Catch-up is bounded: a restarted replica solicits at most
// CatchUpRetries times, waiting CatchUpBackoff ticks after the first
// solicit and twice as long after each further one. A tick is one unit
// of virtual time in simulation and transport.Tick of wall time live.
const (
	CatchUpRetries = 3
	CatchUpBackoff = 8
)

// RecoveryStats counts crash–recovery activity across a run.
type RecoveryStats struct {
	Crashes         int // crash windows opened
	Restarts        int // recoveries fired
	DurableRestores int // restarts that restored a snapshot
	AmnesiaResets   int // restarts that rejoined from genesis
	Solicits        int // catch-up inventory solicits (incl. retries)
	Retries         int // solicits after the first per recovery
	ResyncBlocks    int // blocks (re)fetched between restart and catch-up end
}

// Add folds o into s: a live deployment counts per node, each on its
// own event loop, and sums once the loops have stopped.
func (s *RecoveryStats) Add(o *RecoveryStats) {
	s.Crashes += o.Crashes
	s.Restarts += o.Restarts
	s.DurableRestores += o.DurableRestores
	s.AmnesiaResets += o.AmnesiaResets
	s.Solicits += o.Solicits
	s.Retries += o.Retries
	s.ResyncBlocks += o.ResyncBlocks
}

// CrashRecovery is one process's crash–recovery procedure, stated once
// for both drivers: the simulator calls Crash and Restart from the
// network's crash schedule, a live deployment from timers on the node's
// event loop. Every method must run on the event loop that owns the
// process, where the process's port runs the backoff timers too; the type
// takes no lock and starts no goroutine.
type CrashRecovery struct {
	p       *Process
	durable bool
	stats   *RecoveryStats
	// done, when non-nil, is called each time a catch-up ends.
	done func()

	snap *Snapshot
	// epoch counts crashes. A backoff timer armed before a crash belongs
	// to a recovery that crash ended: it must neither re-solicit nor
	// count resynced blocks beside the recovery the next restart starts.
	epoch int
}

// NewCrashRecovery binds the procedure to p. Catch-up rides the
// anti-entropy handlers, which the caller installs on every process of
// the deployment (the peers answer the solicits).
func NewCrashRecovery(p *Process, durable bool, stats *RecoveryStats, done func()) *CrashRecovery {
	return &CrashRecovery{p: p, durable: durable, stats: stats, done: done}
}

// Crash is the crash edge: a durable replica persists its state. Call
// it before the carrier marks the process down.
func (r *CrashRecovery) Crash() {
	r.stats.Crashes++
	r.epoch++
	if r.durable {
		r.snap = r.p.Snapshot()
	}
}

// Restart is the restart edge: restore the snapshot (or reset, when
// amnesia) and catch up from attempt 0. Call it after the carrier marks
// the process up.
func (r *CrashRecovery) Restart() {
	r.stats.Restarts++
	if r.durable {
		if r.snap != nil {
			r.p.Restore(r.snap)
			r.stats.DurableRestores++
		}
	} else {
		r.p.Reset()
		r.stats.AmnesiaResets++
	}
	r.solicit(0, CatchUpBackoff, r.p.tree.Len())
}

// solicit asks the peers for their inventories and checks progress after
// the backoff, re-soliciting (with the backoff doubled) up to
// CatchUpRetries times. Catch-up ends when the replica has no orphans
// left and made progress since the last solicit, or when the retries are
// exhausted; the blocks gained since restart are then added to
// stats.ResyncBlocks.
func (r *CrashRecovery) solicit(attempt int, backoff int64, lenAtRestart int) {
	p := r.p
	if p.Down() {
		return // crashed again before this attempt; the next restart re-enters
	}
	r.stats.Solicits++
	if attempt > 0 {
		r.stats.Retries++
	}
	epoch, lenAtSolicit := r.epoch, p.tree.Len()
	p.nw.Broadcast(SyncMsg{})
	p.nw.After(backoff, func() {
		if r.epoch != epoch {
			return
		}
		progressed := p.tree.Len() > lenAtSolicit && p.PendingCount() == 0
		if progressed || attempt+1 >= CatchUpRetries {
			r.stats.ResyncBlocks += p.tree.Len() - lenAtRestart
			if r.done != nil {
				r.done()
			}
			return
		}
		r.solicit(attempt+1, backoff*2, lenAtRestart)
	})
}

// EnableCrashRecovery wires the group's replicas to the network's crash
// schedule: on crash a durable replica snapshots its state; on restart
// it restores (or resets, when amnesia) and catches up via the
// anti-entropy layer with bounded retry/backoff. Returns the live stats
// (also kept on g.Recovery). Anti-entropy message handlers are
// installed idempotently, so combining with EnableAntiEntropy is safe.
func (g *Group) EnableCrashRecovery(durable bool) *RecoveryStats {
	stats := &RecoveryStats{}
	g.Recovery = stats
	recs := make([]*CrashRecovery, len(g.Procs))
	for i, p := range g.Procs {
		p.installAntiEntropy()
		recs[i] = NewCrashRecovery(p, durable, stats, nil)
	}
	g.Net.OnCrash(func(id int) { recs[id].Crash() })
	g.Net.OnRestart(func(id int) { recs[id].Restart() })
	return stats
}
