package simnet

import (
	"fmt"

	"repro/internal/trace"
)

// Message is one point-to-point message in flight.
type Message struct {
	From, To int
	Payload  any
}

// DropRule decides whether a message is lost. Returning true drops the
// message silently (it is still counted). Used to build the Theorem
// 4.6/4.7 experiments: dropping even a single update message from a
// correct process breaks Eventual Prefix.
type DropRule func(m Message) bool

// DropNone loses nothing.
func DropNone(Message) bool { return false }

// DropToProcess drops every message addressed to the given process —
// the partitioned-receiver scenario of Lemma 4.5.
func DropToProcess(p int) DropRule {
	return func(m Message) bool { return m.To == p }
}

// DropNth drops exactly the n-th message (0-based) that matches the
// inner rule; all means every message matches. This builds the paper's
// "even only one message dropped" minimal counterexamples.
func DropNth(n int, inner DropRule) DropRule {
	count := 0
	if inner == nil {
		inner = func(Message) bool { return true }
	}
	return func(m Message) bool {
		if !inner(m) {
			return false
		}
		hit := count == n
		count++
		return hit
	}
}

// Handler receives delivered messages at a process.
type Handler func(m Message)

// Network connects n processes over a Sim with a DelayModel and an
// optional DropRule. Sends are recorded and delivery is scheduled as a
// simulator event; a process's handler runs at delivery time.
type Network struct {
	sim      *Sim
	n        int
	delay    DelayModel
	drop     DropRule
	handlers [][]Handler

	// fifo, when enabled, makes every (from, to) link order-preserving
	// (the "reliable FIFO authenticated channels" of the paper's
	// Bitcoin/Ethereum mappings): a message never overtakes an earlier
	// one on the same link. lastOut holds each link's latest scheduled
	// delivery, flat n×n indexed from·n+to, as the ticks past outBase
	// (≤ now; 0 is "at or before outBase", which no later delivery can
	// meet) in two bytes, or outEscape with the time in outFar (setFar).
	fifo    bool
	lastOut []uint16
	outBase int64
	outFar  map[int]int64

	// sched, when set, is the deterministic partition/fault schedule:
	// messages crossing an active cut are deferred to the heal time (or
	// lost under a permanent cut). faultLog records fault events when
	// logFaults is on (see faults.go).
	sched     *Schedule
	faultLog  []FaultEvent
	logFaults bool

	// down[p] is process p's crash flag, set through its port's
	// SetDown: while it is set the network drops p's sends and every
	// delivery addressed to p.
	down []bool

	sent, delivered, dropped int
}

// NewNetwork builds a network of n processes over sim.
func NewNetwork(sim *Sim, n int, delay DelayModel) *Network {
	if delay == nil {
		delay = Synchronous{Delta: 1}
	}
	return &Network{sim: sim, n: n, delay: delay, drop: DropNone, handlers: make([][]Handler, n), down: make([]bool, n)}
}

// Port is process p's view of the network, the replica.Net a simulated
// process talks through: its handlers, its sends, its crash flag and its
// timers (scheduled events: the simulator is every process's loop).
type Port struct {
	nw *Network
	p  int
}

// Port returns process p's view of the network.
func (nw *Network) Port(p int) Port { return Port{nw: nw, p: p} }

func (pt Port) AddHandler(h Handler)         { pt.nw.AddHandler(pt.p, h) }
func (pt Port) Send(to int, payload any)     { pt.nw.Send(pt.p, to, payload) }
func (pt Port) Broadcast(payload any)        { pt.nw.Broadcast(pt.p, payload) }
func (pt Port) Down() bool                   { return pt.nw.down[pt.p] }
func (pt Port) After(ticks int64, fn func()) { pt.nw.sim.Schedule(ticks, fn) }

// SetDown marks the process crashed or back up, and records the edge: a
// "crash" or "restart" fault event when fault recording is on, a
// KCrash or KRestart trace event when tracing.
func (pt Port) SetDown(down bool) {
	nw := pt.nw
	nw.down[pt.p] = down
	kind, tk := "restart", trace.KRestart
	if down {
		kind, tk = "crash", trace.KCrash
	}
	if nw.logFaults {
		nw.faultLog = append(nw.faultLog, FaultEvent{Time: nw.sim.Now(), Kind: kind, From: -1, To: -1, Detail: fmt.Sprintf("p%d", pt.p)})
	}
	if tr := nw.sim.tracer; tr != nil {
		tr.Emit(trace.Event{VT: nw.sim.now, Seq: nw.sim.curSeq, Kind: tk, P: pt.p})
	}
}

// AddHandler registers a delivery handler for process p. Multiple layers
// (replica updates, consensus rounds) each register one; every handler
// sees every delivered message and dispatches on the payload type.
func (nw *Network) AddHandler(p int, h Handler) {
	nw.handlers[p] = append(nw.handlers[p], h)
}

// AddShardSafeHandler is AddHandler.
//
// Deprecated: kept only for the benchmark module; ROADMAP 8(b)'s
// benchmark-only PR deletes it.
func (nw *Network) AddShardSafeHandler(p int, h Handler) { nw.AddHandler(p, h) }

// EnableSharding does nothing: the simulator has one serial scheduler.
//
// Deprecated: kept only for the benchmark module; ROADMAP 8(b)'s
// benchmark-only PR deletes it.
func (nw *Network) EnableSharding(int) {}

// SetDrop installs a drop rule (nil restores DropNone).
func (nw *Network) SetDrop(r DropRule) {
	if r == nil {
		r = DropNone
	}
	nw.drop = r
}

// SetFIFO enables (or disables) per-link FIFO delivery.
func (nw *Network) SetFIFO(on bool) {
	nw.fifo = on
	if on && nw.lastOut == nil {
		nw.lastOut = make([]uint16, nw.n*nw.n)
	}
}

// outEscape marks a lastOut entry whose time is in outFar.
const outEscape = 1<<16 - 1

// setFar records at as the link's latest delivery when it does not fit
// in two bytes past outBase: first, if outBase is more than half the
// range behind now, it sweeps the table onto now−1 (at most one O(n²)
// sweep per 2¹⁵ ticks), folding escaped times back once they fit.
func (nw *Network) setFar(link int, at int64) {
	if shift := nw.sim.now - 1 - nw.outBase; shift >= outEscape/2 {
		nw.outBase += shift
		for i, e := range nw.lastOut {
			if e != outEscape {
				nw.lastOut[i] = uint16(max(int64(e)-shift, 0))
			} else if off := nw.outFar[i] - nw.outBase; off < outEscape {
				nw.lastOut[i] = uint16(max(off, 0))
				delete(nw.outFar, i)
			}
		}
	}
	off := at - nw.outBase
	if off >= outEscape {
		if nw.outFar == nil {
			nw.outFar = map[int]int64{}
		}
		nw.outFar[link], off = at, outEscape
	}
	nw.lastOut[link] = uint16(max(off, 0))
}

// Send transmits payload from from to to. Loopback (from == to) is
// delivered with delay 0 — a process always receives its own broadcast,
// which is how the LRC Validity property is realized.
func (nw *Network) Send(from, to int, payload any) { nw.send(from, to, payload, -1) }

// send is Send with the record the message rides on: rec, which takes
// one more reference, or a record filed for it when rec is −1. It returns
// that record, or rec again when the message is lost.
func (nw *Network) send(from, to int, payload any, rec int32) int32 {
	if to < 0 || to >= nw.n {
		panic(fmt.Sprintf("simnet: send to unknown process %d", to))
	}
	nw.sent++
	if nw.down[from] {
		// A crashed process sends nothing. Timers are suppressed at the
		// harness layer, so this is defense in depth for late callbacks.
		nw.lose("crashloss", from, to)
		return rec
	}
	if from != to && nw.drop(Message{From: from, To: to, Payload: payload}) {
		nw.lose("drop", from, to)
		return rec
	}
	var d int64
	if from != to {
		d = nw.delay.Delay(nw.sim.rng, nw.sim.Now(), from, to)
	}
	if from != to && (nw.sched != nil || nw.fifo) {
		// Resolve the delivery time against the fault schedule and the
		// FIFO no-overtake rule together: a FIFO bump can push the
		// message back inside a later cut window (and a heal-time flush
		// can collide with the link's last scheduled delivery), so the
		// two constraints iterate to a fixed point. Each schedule
		// deferral jumps to a window end and each FIFO bump moves
		// forward past lastOut, so the loop terminates after at most
		// one pass per window.
		now := nw.sim.Now()
		at := now + d
		link := from*nw.n + to
		for {
			if nw.sched != nil {
				resolved, ok := nw.sched.DeliveryTime(at, from, to)
				if !ok {
					nw.lose("partloss", from, to)
					return rec
				}
				if resolved != at {
					at = resolved
					continue
				}
			}
			if nw.fifo {
				prev := nw.outBase + int64(nw.lastOut[link])
				if nw.lastOut[link] == outEscape {
					prev = nw.outFar[link]
				}
				if at <= prev {
					at = prev + 1
					continue
				}
			}
			break
		}
		if nw.logFaults && nw.sched != nil && nw.sched.Cut(now+d, from, to) {
			nw.faultLog = append(nw.faultLog, FaultEvent{
				Time: now, Kind: "defer", From: from, To: to,
				Detail: fmt.Sprintf("until %d", at),
			})
			if nw.sim.tracer != nil {
				nw.traceFault(now, "defer", from, to)
			}
		}
		if nw.fifo {
			if off := uint64(at - nw.outBase); off < outEscape {
				nw.lastOut[link] = uint16(off)
			} else {
				nw.setFar(link, at)
			}
		}
		d = at - now
	}
	// The slot names the record and the recipient: the send performs no
	// closure or node allocation, and a broadcast's sends share a record.
	if rec < 0 {
		rec = nw.sim.recs.file(record{nw: nw, payload: payload, from: int32(from)})
	} else {
		nw.sim.recs.ref(rec)
	}
	nw.sim.schedule(d, int32(to), rec)
	if tr := nw.sim.tracer; tr != nil && tr.Sampled(trace.KSend, nw.sim.seq) {
		tr.Emit(trace.Event{
			VT: nw.sim.now, Seq: nw.sim.seq, Kind: trace.KSend, P: from,
			Detail: fmt.Sprintf("->%d", to),
		})
	}
	return rec
}

// deliver runs the delivery of m at its destination (called by the
// scheduler when the corresponding event fires). A message reaching a
// crashed process is lost — unlike a partition, a crash does not defer:
// the process must resynchronize after recovery.
func (nw *Network) deliver(m Message) {
	if nw.down[m.To] {
		nw.lose("crashloss", m.From, m.To)
		return
	}
	nw.delivered++
	for _, h := range nw.handlers[m.To] {
		h(m)
	}
}

// lose counts a message from→to as dropped now, for the reason kind: a
// fault event when fault recording is on, a trace event when tracing.
func (nw *Network) lose(kind string, from, to int) {
	nw.dropped++
	if nw.logFaults {
		nw.faultLog = append(nw.faultLog, FaultEvent{Time: nw.sim.Now(), Kind: kind, From: from, To: to})
	}
	if nw.sim.tracer != nil {
		nw.traceFault(nw.sim.Now(), kind, from, to)
	}
}

// Broadcast sends payload from from to every process, itself included
// (best-effort flooding; reliability properties are what the checkers
// measure, not what the primitive promises). Its sends run exactly as n
// Send calls would, but every delivery they schedule shares one record;
// a broadcast whose every send is lost files none.
func (nw *Network) Broadcast(from int, payload any) {
	rec := int32(-1)
	for to := 0; to < nw.n; to++ {
		rec = nw.send(from, to, payload, rec)
	}
}

// Stats returns (sent, delivered, dropped) counters.
func (nw *Network) Stats() (sent, delivered, dropped int) {
	return nw.sent, nw.delivered, nw.dropped
}
