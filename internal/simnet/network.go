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

// DropFromProcess drops every message sent by the given process — the
// silent-sender scenario of Lemma 4.4 (R1 violated from the outside).
func DropFromProcess(p int) DropRule {
	return func(m Message) bool { return m.From == p }
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
	// one on the same link. lastOut tracks the latest scheduled
	// delivery time per link, as a flat n×n array indexed from·n+to —
	// the per-send map lookup was a top profile entry at N ≥ 256.
	fifo    bool
	lastOut []int64

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

// SetDropRandom installs i.i.d. loss with probability p from the
// network's deterministic RNG.
func (nw *Network) SetDropRandom(p float64) {
	rng := nw.sim.RNG().Split()
	nw.drop = func(Message) bool { return rng.Bernoulli(p) }
}

// SetFIFO enables (or disables) per-link FIFO delivery.
func (nw *Network) SetFIFO(on bool) {
	nw.fifo = on
	if on && nw.lastOut == nil {
		nw.lastOut = make([]int64, nw.n*nw.n)
	}
}

// Send transmits payload from from to to. Loopback (from == to) is
// delivered with delay 0 — a process always receives its own broadcast,
// which is how the LRC Validity property is realized.
func (nw *Network) Send(from, to int, payload any) {
	if to < 0 || to >= nw.n {
		panic(fmt.Sprintf("simnet: send to unknown process %d", to))
	}
	m := Message{From: from, To: to, Payload: payload}
	nw.sent++
	if nw.down[from] {
		// A crashed process sends nothing. Timers are suppressed at the
		// harness layer, so this is defense in depth for late callbacks.
		nw.lose("crashloss", from, to)
		return
	}
	if from != to && nw.drop(m) {
		nw.lose("drop", from, to)
		return
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
					return
				}
				if resolved != at {
					at = resolved
					continue
				}
			}
			if nw.fifo {
				if prev := nw.lastOut[link]; at <= prev {
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
			nw.lastOut[link] = at
		}
		d = at - now
	}
	// Flat delivery event: the message rides in the heap entry itself,
	// so the hot send path performs no closure or node allocation.
	nw.sim.schedule(d, event{kind: evDeliver, nw: nw, msg: m})
	if tr := nw.sim.tracer; tr != nil && tr.Sampled(trace.KSend, nw.sim.seq) {
		tr.Emit(trace.Event{
			VT: nw.sim.now, Seq: nw.sim.seq, Kind: trace.KSend, P: from,
			Detail: fmt.Sprintf("->%d", to),
		})
	}
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
// measure, not what the primitive promises).
func (nw *Network) Broadcast(from int, payload any) {
	for to := 0; to < nw.n; to++ {
		nw.Send(from, to, payload)
	}
}

// Stats returns (sent, delivered, dropped) counters.
func (nw *Network) Stats() (sent, delivered, dropped int) {
	return nw.sent, nw.delivered, nw.dropped
}
