package simnet

import (
	"fmt"

	"repro/internal/trace"
)

// This file adds the crash–recovery half of the fault model: alongside
// partition windows (faults.go), a schedule can carry CrashWindows that
// take individual processes down for an interval. While a process is
// down, every delivery addressed to it is dropped (logged as a
// "crashloss" fault event) and anything it would send is suppressed —
// harness timers consult Network.Down before acting for a process, so a
// crashed replica neither mines, reads, nor advertises. Recovery fires
// a deterministic restart event at the window end; the replica layer
// hooks OnCrash/OnRestart to snapshot durable state and run catch-up.
//
// Crash semantics differ from partitions on purpose: a partitioned
// message is *deferred* to the heal (the link recovers, the queue
// flushes), while a message to a crashed process is *lost* (the process
// was not there to receive it) — recovery must resynchronize through
// the anti-entropy layer, which is exactly the durable-vs-amnesia
// experiment the catalogue measures.

// CrashWindow takes process Proc down during [Start, End). End ==
// NoHeal means the process never recovers (crash-stop).
type CrashWindow struct {
	Proc       int
	Start, End int64
}

// active reports whether the process is down at time t.
func (w *CrashWindow) active(t int64) bool {
	return t >= w.Start && (w.End == NoHeal || t < w.End)
}

// String renders e.g. "p2 down [30,60)" or "p1 crash-stop @40".
func (w CrashWindow) String() string {
	if w.End == NoHeal {
		return fmt.Sprintf("p%d crash-stop @%d", w.Proc, w.Start)
	}
	return fmt.Sprintf("p%d down [%d,%d)", w.Proc, w.Start, w.End)
}

// DownAt reports whether process p is crashed at time t.
func (s *Schedule) DownAt(t int64, p int) bool {
	if s == nil {
		return false
	}
	for i := range s.Crashes {
		w := &s.Crashes[i]
		if w.Proc == p && w.active(t) {
			return true
		}
	}
	return false
}

// downBesides reports whether any crash window other than index skip has
// process p down at time t — used to merge overlapping windows so each
// recovery fires exactly one crash/restart pair.
func (s *Schedule) downBesides(t int64, p, skip int) bool {
	for i := range s.Crashes {
		if i == skip {
			continue
		}
		w := &s.Crashes[i]
		if w.Proc == p && w.active(t) {
			return true
		}
	}
	return false
}

// Down reports whether process p is crashed at the current virtual time.
// Harness timers (mining ticks, read ticks, anti-entropy rounds) call
// this before acting for a process: a crashed process runs nothing.
func (nw *Network) Down(p int) bool {
	return nw.sched.DownAt(nw.sim.Now(), p)
}

// OnCrash registers a hook run when a process goes down (at the start of
// each of its crash windows). Hooks run in registration order, before
// any same-time deliveries.
func (nw *Network) OnCrash(fn func(p int)) {
	nw.onCrash = append(nw.onCrash, fn)
}

// OnRestart registers a hook run when a process recovers (at the end of
// each of its crash windows). Hooks run before any same-time deliveries,
// so a restored replica is back before the first post-recovery message.
func (nw *Network) OnRestart(fn func(p int)) {
	nw.onRestart = append(nw.onRestart, fn)
}

// armCrashes schedules the crash/restart hook firings for every crash
// window of s and logs the boundary fault events. Overlapping windows
// for the same process are merged: a boundary inside another active
// window fires nothing, so each continuous down-span yields exactly one
// crash and (unless permanent) exactly one restart.
func (nw *Network) armCrashes(s *Schedule) {
	for i := range s.Crashes {
		i := i
		w := s.Crashes[i]
		if w.End != NoHeal && w.End <= w.Start {
			continue // empty window: never active, no boundary events
		}
		// A crash boundary is real only when the process was up on the
		// previous tick (adjacent windows [a,b)+[b,c) are one span).
		if !s.downBesides(w.Start, w.Proc, i) && !s.DownAt(w.Start-1, w.Proc) {
			if nw.logFaults {
				nw.faultLog = append(nw.faultLog, FaultEvent{Time: w.Start, Kind: "crash", From: -1, To: -1, Detail: fmt.Sprintf("p%d", w.Proc)})
			}
			nw.sim.At(w.Start, func() {
				if nw.sched != s {
					return // schedule was replaced after arming
				}
				if tr := nw.sim.tracer; tr != nil {
					tr.Emit(trace.Event{VT: nw.sim.now, Seq: nw.sim.curSeq, Kind: trace.KCrash, P: w.Proc})
				}
				for _, fn := range nw.onCrash {
					fn(w.Proc)
				}
			})
		}
		if w.End == NoHeal {
			continue
		}
		if !s.downBesides(w.End, w.Proc, i) {
			if nw.logFaults {
				nw.faultLog = append(nw.faultLog, FaultEvent{Time: w.End, Kind: "restart", From: -1, To: -1, Detail: fmt.Sprintf("p%d", w.Proc)})
			}
			nw.sim.At(w.End, func() {
				if nw.sched != s {
					return
				}
				if tr := nw.sim.tracer; tr != nil {
					tr.Emit(trace.Event{VT: nw.sim.now, Seq: nw.sim.curSeq, Kind: trace.KRestart, P: w.Proc})
				}
				for _, fn := range nw.onRestart {
					fn(w.Proc)
				}
			})
		}
	}
}
