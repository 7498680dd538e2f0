// Package simnet is the message-passing substrate of Sections 4.2–4.3: a
// deterministic discrete-event simulator of an n-process system with
// configurable communication timing (synchronous with bound δ, partially
// synchronous with a global stabilization time, asynchronous), message
// loss injection, and Byzantine process support. Protocol simulators
// (internal/protocols) and the replicated BlockTree (internal/replica)
// run on top of it; the send/receive/update events they record are what
// the Update Agreement and LRC checkers examine.
//
// Time is virtual: a global fictional clock that processes cannot read
// (only the simulator harness schedules with it), exactly as the paper's
// model prescribes.
package simnet

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/tape"
	"repro/internal/trace"
)

// Sim is the discrete-event scheduler. It is single-threaded: callbacks
// run sequentially in virtual-time order, which makes every run
// reproducible from its seed.
type Sim struct {
	now     int64
	seq     int64
	pq      queue   // slots, ordered by (time, seq)
	recs    records // what the queued slots run
	rng     *tape.RNG
	stepped int

	// Pending Every series (every.go), their occurrences still to fire,
	// and, while any is pending, the earliest of those: series[due], at
	// (dueTime, dueSeq).
	series          []series
	occurrences     int
	due             int
	dueTime, dueSeq int64

	// metrics/tracer, when non-nil, observe the run (observe.go). Both
	// are strictly passive: they never schedule, draw randomness, or
	// mutate simulation state. curSeq is the sequence number of the
	// event currently executing — it stamps fault trace events.
	metrics *metrics.Registry
	tracer  *trace.Tracer
	curSeq  int64
}

// NewSim creates a simulator whose randomness derives from seed.
func NewSim(seed uint64) *Sim {
	return &Sim{rng: tape.NewRNG(seed)}
}

// Now returns the current virtual time.
func (s *Sim) Now() int64 { return s.now }

// RNG returns the simulator's deterministic random stream.
func (s *Sim) RNG() *tape.RNG { return s.rng }

// schedule queues a slot that runs record rec (a delivery to process to,
// or a timer when to is −1) after delay virtual-time units. The slot
// holds one of rec's references.
func (s *Sim) schedule(delay int64, to, rec int32) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	s.pq.push(s.now+delay, slot{seq: s.seq, to: to, rec: rec})
}

// Schedule runs fn after delay virtual time units (delay 0 runs at the
// current time, after already-queued same-time events). A timer that
// fires again and again is one Every call, not a loop of Schedule calls.
func (s *Sim) Schedule(delay int64, fn func()) {
	s.schedule(delay, -1, s.recs.file(record{fn: fn}))
}

// peek returns the time of the earliest pending event or occurrence of
// a simulator with one pending.
func (s *Sim) peek() int64 {
	if s.occurrences == 0 || s.pq.len() > 0 && s.pq.peek() < s.dueTime {
		return s.pq.peek()
	}
	return s.dueTime
}

// step executes the earliest pending event or occurrence.
func (s *Sim) step() {
	if s.occurrences > 0 && s.occurrenceFirst() {
		s.fire()
		s.stepped++
		return
	}
	t, e := s.pq.pop()
	s.now = t
	s.curSeq = e.seq
	r := s.recs.take(e.rec)
	if s.tracer != nil {
		s.traceExec(e.seq, e.to)
	}
	if e.to >= 0 {
		r.nw.deliver(Message{From: int(r.from), To: int(e.to), Payload: r.payload})
	} else {
		r.fn()
	}
	s.stepped++
}

// Run executes events until the queue empties or the next event is later
// than until. It returns the number of events executed.
func (s *Sim) Run(until int64) int {
	n := 0
	for s.Pending() > 0 && s.peek() <= until {
		if s.metrics != nil {
			s.metrics.Tick(s.peek())
		}
		s.step()
		n++
	}
	if s.now < until {
		s.now = until
	}
	if s.metrics != nil {
		s.metrics.Tick(until)
	}
	return n
}

// RunUntilIdle drains the event queue completely (the queue must be
// finite: every protocol run is bounded by construction).
func (s *Sim) RunUntilIdle() int {
	n := 0
	for s.Pending() > 0 {
		if s.metrics != nil {
			s.metrics.Tick(s.peek())
		}
		s.step()
		n++
	}
	return n
}

// Pending returns the number of queued events plus the occurrences of
// Every series still to fire.
func (s *Sim) Pending() int { return s.pq.len() + s.occurrences }

// DelayModel decides the delivery delay of each message, defining the
// synchrony assumption of Section 4.2.
type DelayModel interface {
	// Delay returns the virtual-time delivery delay for a message
	// sent at time now from process from to process to.
	Delay(rng *tape.RNG, now int64, from, to int) int64
	Name() string
}

// Synchronous delivers every message within Delta: "messages sent by
// correct processes at time t are delivered by time t + δ". Delays are
// uniform in [1, Delta].
type Synchronous struct{ Delta int64 }

// Delay implements DelayModel.
func (m Synchronous) Delay(rng *tape.RNG, _ int64, _, _ int) int64 {
	if m.Delta <= 1 {
		return 1
	}
	return 1 + int64(rng.Intn(int(m.Delta)))
}

// Name returns e.g. "sync(δ=5)".
func (m Synchronous) Name() string { return fmt.Sprintf("sync(δ=%d)", m.Delta) }

// PartialSynchrony is the weakly synchronous model: before the (a priori
// unknown) global stabilization time GST, delays are uniform in
// [1, DeltaBefore]; from GST on, within DeltaAfter.
type PartialSynchrony struct {
	GST         int64
	DeltaBefore int64
	DeltaAfter  int64
}

// Delay implements DelayModel.
func (m PartialSynchrony) Delay(rng *tape.RNG, now int64, _, _ int) int64 {
	d := m.DeltaAfter
	if now < m.GST {
		d = m.DeltaBefore
	}
	if d <= 1 {
		return 1
	}
	return 1 + int64(rng.Intn(int(d)))
}

// Name returns e.g. "psync(GST=100,δ=5)".
func (m PartialSynchrony) Name() string {
	return fmt.Sprintf("psync(GST=%d,δ=%d)", m.GST, m.DeltaAfter)
}

// Asynchronous has no delivery bound: delays follow a geometric
// distribution with parameter P (mean 1/P), so any finite bound is
// exceeded with positive probability. P must be in (0, 1].
type Asynchronous struct{ P float64 }

// Delay implements DelayModel.
func (m Asynchronous) Delay(rng *tape.RNG, _ int64, _, _ int) int64 {
	p := m.P
	if p <= 0 || p > 1 {
		p = 0.2
	}
	return 1 + int64(rng.Geometric(p))
}

// Name returns e.g. "async(p=0.2)".
func (m Asynchronous) Name() string { return fmt.Sprintf("async(p=%g)", m.P) }
