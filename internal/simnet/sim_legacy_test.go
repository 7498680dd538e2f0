package simnet

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/tape"
)

// This file preserves the pre-rewrite scheduler — a container/heap of
// per-event pointer nodes whose deliveries were capturing closures — and
// pins the production scheduler (flat events in queue.go's run queue)
// against it: for identical schedule programs and seeds, the execution
// order must be byte-identical (DESIGN.md ablations #6 and #31 measure
// the cost gap between the two).

// legacyEvent is the old per-event heap node.
type legacyEvent struct {
	time int64
	seq  int64
	fn   func()
}

type legacyHeap []*legacyEvent

func (h legacyHeap) Len() int { return len(h) }
func (h legacyHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h legacyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *legacyHeap) Push(x any)   { *h = append(*h, x.(*legacyEvent)) }
func (h *legacyHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// legacySim is the old closure-based scheduler, verbatim.
type legacySim struct {
	now int64
	seq int64
	pq  legacyHeap
	rng *tape.RNG
}

func newLegacySim(seed uint64) *legacySim { return &legacySim{rng: tape.NewRNG(seed)} }

func (s *legacySim) schedule(delay int64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	heap.Push(&s.pq, &legacyEvent{time: s.now + delay, seq: s.seq, fn: fn})
}

func (s *legacySim) runUntilIdle() { s.run(math.MaxInt64) }

// run executes events up to time until, like Sim.Run.
func (s *legacySim) run(until int64) {
	for len(s.pq) > 0 && s.pq[0].time <= until {
		e := heap.Pop(&s.pq).(*legacyEvent)
		s.now = e.time
		e.fn()
	}
	s.now = max(s.now, until)
}

// legacyNet replays the old Network.Send logic (delivery as a capturing
// closure) over the legacy scheduler, drawing delays from an identical
// RNG stream.
type legacyNet struct {
	sim   *legacySim
	n     int
	delay DelayModel
	drop  DropRule
	sched *Schedule
	fifo  bool
	last  map[[2]int]int64
	trace *[]string
	relay func(m Message) // when set, runs after each delivery is traced
}

func (nw *legacyNet) send(from, to int, payload any) {
	m := Message{From: from, To: to, Payload: payload}
	if from != to && nw.drop(m) {
		return
	}
	var d int64
	if from != to {
		d = nw.delay.Delay(nw.sim.rng, nw.sim.now, from, to)
	}
	if from != to && (nw.sched != nil || nw.fifo) {
		// The fault schedule and the FIFO rule resolve together, as in
		// Network.send, over int64 times kept in a map.
		link := [2]int{from, to}
		at := nw.sim.now + d
		for {
			resolved, ok := nw.sched.DeliveryTime(at, from, to)
			if !ok {
				return
			}
			if prev := nw.last[link]; resolved == at && nw.fifo && at <= prev {
				resolved = prev + 1
			}
			if resolved == at {
				break
			}
			at = resolved
		}
		if nw.fifo {
			nw.last[link] = at
		}
		d = at - nw.sim.now
	}
	nw.sim.schedule(d, func() {
		*nw.trace = append(*nw.trace, fmt.Sprintf("t=%d %d→%d %v", nw.sim.now, m.From, m.To, m.Payload))
		if nw.relay != nil {
			nw.relay(m)
		}
	})
}

// broadcast is the old Broadcast: one send per process, itself included.
func (nw *legacyNet) broadcast(from int, payload any) {
	for to := 0; to < nw.n; to++ {
		nw.send(from, to, payload)
	}
}

// schedProgram describes one deterministic workload: point-to-point
// sends and broadcasts at varying submission times, periodic series
// that send as they fire, and the times at which the run is stopped
// (Run(until)) before it drains.
type schedProgram struct {
	steps  []schedStep
	series []schedSeries
	stops  []int64
}

type schedStep struct {
	at       int64
	from, to int // to < 0 means broadcast
	payload  int
}

// schedSeries is a periodic timer: count occurrences, first + k·step
// after it is set up. It is set up before the run, or, when after > 0,
// once the run has stopped at stops[after-1]. Occurrence k sends from
// process from to process k mod n; a nested series also schedules, from
// inside the occurrence, a delay-0 timer that sends back.
type schedSeries struct {
	first, step int64
	count       int
	from        int
	after       int
	nested      bool
}

func buildProgram(seed uint64, n, steps int) schedProgram {
	rng := tape.NewRNG(seed ^ 0x5eed)
	var prog schedProgram
	prog.steps = make([]schedStep, steps)
	for i := range prog.steps {
		st := schedStep{at: int64(rng.Intn(40)), from: rng.Intn(n), payload: i}
		if rng.Intn(4) == 0 {
			st.to = -1
		} else {
			st.to = rng.Intn(n)
		}
		prog.steps[i] = st
	}
	// Two series with one shape fire at equal times, and at times the
	// sends' deliveries land on; the others fire at their own pace, one
	// from inside the run.
	first, step := int64(1+rng.Intn(3)), int64(1+rng.Intn(4))
	prog.series = []schedSeries{
		{first: first, step: step, count: 12, from: rng.Intn(n)},
		{first: first, step: step, count: 9, from: rng.Intn(n), nested: true},
		{first: 0, step: 5, count: 7, from: rng.Intn(n), nested: true},
		{first: int64(rng.Intn(6)), step: int64(2 + rng.Intn(3)), count: 10, from: rng.Intn(n), after: 1},
		{first: 0, step: 0, count: 1, from: rng.Intn(n), after: 2},
	}
	prog.stops = []int64{int64(5 + rng.Intn(10)), int64(20 + rng.Intn(10))}
	return prog
}

// seriesPayload names occurrence k of series i; the nested timer's send
// carries the same name, negated.
func seriesPayload(i, k int, nested bool) int {
	p := 1_000_000 + 1000*i + k
	if nested {
		return -p
	}
	return p
}

// runProgram sets up prog's sends and series on a scheduler and runs it
// to its stops and then to idle. every sets up a series: Sim.Every on
// the production scheduler, a loop of schedule calls on the legacy one.
// broadcast is Network.Broadcast there, a loop of sends here.
func runProgram(prog schedProgram, n int, schedule func(int64, func()), every func(first, step int64, count int, fn func(k int)),
	run func(int64), send func(from, to, payload int), broadcast func(from, payload int)) {
	for _, st := range prog.steps {
		st := st
		schedule(st.at, func() {
			if st.to < 0 {
				broadcast(st.from, st.payload)
			} else {
				send(st.from, st.to, st.payload)
			}
		})
	}
	setUp := func(after int) {
		for i, sr := range prog.series {
			if sr.after != after {
				continue
			}
			every(sr.first, sr.step, sr.count, func(k int) {
				send(sr.from, k%n, seriesPayload(i, k, false))
				if sr.nested {
					schedule(0, func() { send(k%n, sr.from, seriesPayload(i, k, true)) })
				}
			})
		}
	}
	setUp(0)
	for i, until := range prog.stops {
		run(until)
		setUp(i + 1)
	}
	run(math.MaxInt64)
}

// runNew drives the production Sim/Network with the program and returns
// the delivery trace.
func runNew(seed uint64, n int, prog schedProgram, fifo bool, mkDrop func() DropRule, model DelayModel) []string {
	var trace []string
	s := NewSim(seed)
	nw := NewNetwork(s, n, model)
	if fifo {
		nw.SetFIFO(true)
	}
	if mkDrop != nil {
		nw.SetDrop(mkDrop())
	}
	for p := 0; p < n; p++ {
		nw.AddHandler(p, func(m Message) {
			trace = append(trace, fmt.Sprintf("t=%d %d→%d %v", s.Now(), m.From, m.To, m.Payload))
		})
	}
	runProgram(prog, n, s.Schedule, s.Every, func(until int64) {
		if until == math.MaxInt64 {
			s.RunUntilIdle()
		} else {
			s.Run(until)
		}
	}, func(from, to, payload int) { nw.Send(from, to, payload) }, func(from, payload int) { nw.Broadcast(from, payload) })
	return trace
}

// runLegacy drives the preserved old scheduler+send path with the same
// program, each series expanded into its loop of schedule calls, and
// returns its delivery trace.
func runLegacy(seed uint64, n int, prog schedProgram, fifo bool, mkDrop func() DropRule, model DelayModel) []string {
	var trace []string
	s := newLegacySim(seed)
	drop := DropRule(DropNone)
	if mkDrop != nil {
		drop = mkDrop()
	}
	nw := &legacyNet{sim: s, n: n, delay: model, drop: drop, fifo: fifo, last: map[[2]int]int64{}, trace: &trace}
	every := func(first, step int64, count int, fn func(k int)) {
		for k := 0; k < count; k++ {
			s.schedule(first+int64(k)*step, func() { fn(k) })
		}
	}
	runProgram(prog, n, s.schedule, every, s.run, func(from, to, payload int) { nw.send(from, to, payload) },
		func(from, payload int) { nw.broadcast(from, payload) })
	return trace
}

// TestSchedulerDifferentialOrder pins the scheduler against
// the legacy closure heap: identical seeds and programs must yield
// byte-identical delivery traces across synchrony models, with and
// without FIFO links. The programs' periodic series run as Sim.Every
// here and as schedule loops there.
func TestSchedulerDifferentialOrder(t *testing.T) {
	models := []DelayModel{
		Synchronous{Delta: 1},
		Synchronous{Delta: 7},
		PartialSynchrony{GST: 20, DeltaBefore: 15, DeltaAfter: 2},
		Asynchronous{P: 0.4},
	}
	for seed := uint64(0); seed < 6; seed++ {
		for _, m := range models {
			for _, fifo := range []bool{false, true} {
				prog := buildProgram(seed, 5, 120)
				got := runNew(seed, 5, prog, fifo, nil, m)
				want := runLegacy(seed, 5, prog, fifo, nil, m)
				if len(got) != len(want) {
					t.Fatalf("seed %d %s fifo=%v: %d vs %d deliveries", seed, m.Name(), fifo, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d %s fifo=%v: delivery %d diverged:\n new %s\n old %s",
							seed, m.Name(), fifo, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSchedulerDifferentialWithDrops pins DropNth, DropToProcess and a
// sender rule under the run queue: the dropped message set and the
// surviving delivery order must match the legacy scheduler exactly.
func TestSchedulerDifferentialWithDrops(t *testing.T) {
	rules := []struct {
		name string
		mk   func() DropRule
	}{
		{"DropToProcess(2)", func() DropRule { return DropToProcess(2) }},
		{"From==1", func() DropRule { return func(m Message) bool { return m.From == 1 } }},
		{"DropNth(0,to2)", func() DropRule { return DropNth(0, DropToProcess(2)) }},
		{"DropNth(7,all)", func() DropRule { return DropNth(7, nil) }},
	}
	for seed := uint64(0); seed < 4; seed++ {
		for _, r := range rules {
			for _, fifo := range []bool{false, true} {
				prog := buildProgram(seed, 4, 80)
				got := runNew(seed, 4, prog, fifo, r.mk, Synchronous{Delta: 5})
				want := runLegacy(seed, 4, prog, fifo, r.mk, Synchronous{Delta: 5})
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d rule %s fifo=%v: traces diverged\n new %v\n old %v",
						seed, r.name, fifo, got, want)
				}
			}
		}
	}
}

// broadcastScript is what a FuzzBroadcastOrder script drives: the
// production network, or the legacy scheduler's send loop.
type broadcastScript struct {
	send      func(from, to, payload int)
	broadcast func(from, payload int)
	schedule  func(delay int64, fn func())
	run       func(until int64)
	now       func() int64
	setFIFO   func(on bool)
}

// farDelays draws each delay from a list that crosses the edges of the
// FIFO table's two bytes — 2¹⁵ ± 1, 2¹⁶ − 1, 2¹⁶, 2²⁰ — beside short
// ones, so links also bump.
type farDelays struct{}

var farDelayTicks = []int64{1, 2, 3, 5, 1<<15 - 1, 1 << 15, 1<<15 + 1, 1<<16 - 1, 1 << 16, 1 << 20}

func (farDelays) Delay(rng *tape.RNG, _ int64, _, _ int) int64 {
	return farDelayTicks[rng.Intn(len(farDelayTicks))]
}
func (farDelays) Name() string { return "far" }

// newBroadcastPair builds the production network and the legacy loop
// over one delay model, drop rule and schedule, FIFO links on or off,
// each tracing its deliveries into its list and relaying them.
func newBroadcastPair(n int, model DelayModel, rule func() DropRule, sched *Schedule, fifo bool) (prod, legacy *broadcastScript, nw *Network, got, want *[]string) {
	got, want = new([]string), new([]string)
	s := NewSim(1)
	nw = NewNetwork(s, n, model)
	nw.SetFIFO(fifo)
	nw.SetDrop(rule())
	nw.SetSchedule(sched)
	prod = &broadcastScript{
		send:      func(from, to, p int) { nw.Send(from, to, p) },
		broadcast: func(from, p int) { nw.Broadcast(from, p) },
		schedule:  s.Schedule,
		run: func(until int64) {
			if until == math.MaxInt64 {
				s.RunUntilIdle()
			} else {
				s.Run(until)
			}
		},
		now:     s.Now,
		setFIFO: nw.SetFIFO,
	}
	for p := 0; p < n; p++ {
		nw.AddHandler(p, func(m Message) {
			*got = append(*got, fmt.Sprintf("t=%d %d→%d %v", s.Now(), m.From, m.To, m.Payload))
			relay(prod, m)
		})
	}

	ls := newLegacySim(1)
	lnw := &legacyNet{sim: ls, n: n, delay: model, drop: rule(), sched: sched, fifo: fifo, last: map[[2]int]int64{}, trace: want}
	legacy = &broadcastScript{
		send:      func(from, to, p int) { lnw.send(from, to, p) },
		broadcast: func(from, p int) { lnw.broadcast(from, p) },
		schedule:  ls.schedule,
		run:       ls.run,
		now:       func() int64 { return ls.now },
		setFIFO:   func(on bool) { lnw.fifo = on },
	}
	lnw.relay = func(m Message) { relay(legacy, m) }
	return prod, legacy, nw, got, want
}

// sameDeliveries fails t at the first delivery where got and want part.
func sameDeliveries(t *testing.T, got, want []string) {
	t.Helper()
	if slices.Equal(got, want) {
		return
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("delivery %d: %q, the legacy loop %q", i, got[i], want[i])
		}
	}
	t.Fatalf("%d deliveries, the legacy loop %d", len(got), len(want))
}

// relay is what a delivery of m does besides being traced: a first-hand
// payload p (p > 0) is broadcast again by its recipient when p%3 == 0,
// and sent back to its sender when p%3 == 1, as −p. Relayed payloads are
// not relayed again.
func relay(b *broadcastScript, m Message) {
	switch p := m.Payload.(int); {
	case p > 0 && p%3 == 0:
		b.broadcast(m.To, -p)
	case p > 0 && p%3 == 1:
		b.send(m.To, m.From, -p)
	}
}

// playBroadcastScript plays script's byte triples (op, x, y) on a
// network of n processes; the payload of the triple at byte i is i+1.
//
//	op%4 == 0: Run(now + x%16)
//	op%4 == 1: Send(x%n, y%n, …)
//	op%4 == 2: Broadcast(x%n, …)
//	op%4 == 3: Schedule(x%8, …) of a timer that broadcasts from y%n and,
//	           when op/4 is odd, also sends from y%n to x%n
//
// Scripts are cut at 128 triples, and then run to idle.
func playBroadcastScript(b *broadcastScript, n int, script []byte) {
	for i := 0; i+2 < min(len(script), 3*128); i += 3 {
		op, x, y := script[i], int(script[i+1]), int(script[i+2])
		id := i + 1
		switch op % 4 {
		case 0:
			b.run(b.now() + int64(x%16))
		case 1:
			b.send(x%n, y%n, id)
		case 2:
			b.broadcast(x%n, id)
		case 3:
			b.schedule(int64(x%8), func() {
				b.broadcast(y%n, id)
				if op/4%2 == 1 {
					b.send(y%n, x%n, id)
				}
			})
		}
	}
	b.run(math.MaxInt64)
}

// FuzzBroadcastOrder holds Broadcast's shared records to the legacy send
// loop: a fuzz-chosen script of Broadcast, Send, Schedule and Run(until)
// calls, with deliveries that broadcast or send again from inside their
// handler, yields the legacy scheduler's delivery trace exactly. The
// first byte picks 1–5 processes, FIFO links and δ, or, when its high
// nibble is 12 or more, farDelays, whose deliveries past the FIFO
// table's two bytes escape it and whose relays sweep it; the second a
// DropNth rule, over all messages or those to one process, so
// broadcasts are partly dropped and FIFO bumps shift some of their
// deliveries. At idle every record is back on the free list.
func FuzzBroadcastOrder(f *testing.F) {
	f.Add([]byte{0x1c, 3, 2, 0, 0, 1, 1, 2, 0, 2, 0, 0})          // FIFO, δ 2: two broadcasts, a send between, one dropped
	f.Add([]byte{0x24, 200, 3, 1, 2, 2, 4, 0, 0, 3, 0, 7, 3, 2})  // a timer's broadcast, sends to one process dropped
	f.Add([]byte{0x0b, 0, 2, 0, 0, 2, 1, 0, 0, 5, 0, 2, 2, 0, 0}) // broadcasts relayed from inside handlers, a stop mid-run
	f.Add([]byte{0xcc, 31, 2, 0, 0, 2, 1, 0, 1, 2, 3, 2, 2, 0})   // FIFO, far delays: relayed broadcasts escape and sweep
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		n, fifo := 1+int(script[0]%5), script[0]&8 != 0
		var model DelayModel = Synchronous{Delta: 1 + int64(script[0]>>4%6)}
		if script[0]>>4 >= 12 {
			model = farDelays{}
		}
		c := int(script[1])
		rule := func() DropRule {
			if c >= 128 {
				return DropNth(c%8, DropToProcess(c/8%n))
			}
			return DropNth(c%32, nil)
		}
		script = script[2:]

		prod, legacy, nw, got, want := newBroadcastPair(n, model, rule, nil, fifo)
		playBroadcastScript(prod, n, script)
		playBroadcastScript(legacy, n, script)
		sameDeliveries(t, *got, *want)
		if s := nw.sim; s.Pending() != 0 || s.recs.n != 0 {
			t.Fatalf("idle with %d pending and %d records in use", s.Pending(), s.recs.n)
		}
		freeRecords(t, &nw.sim.recs)
	})
}

// TestFIFOFarDelaysMatchLegacy holds the two-byte FIFO table to the
// legacy loop's int64 times, delivery by delivery, where it is not
// two bytes: farDelays' delays, virtual time past 2³², FIFO links
// switched off and back on mid-run, and a cut that defers process 0's
// links 2¹⁷ ticks. The run must sweep the table several times and
// escape times into outFar.
func TestFIFOFarDelaysMatchLegacy(t *testing.T) {
	const n = 4
	cut := NewSchedule(SplitWindow(1<<32, 1<<32+1<<17, n, []int{0}))
	stops := []int64{1 << 10, 1 << 16, 1<<17 + 3, 1 << 20, 1<<20 + 1<<15, 1 << 31, 1<<32 - 7, 1<<32 + 1<<16, 1 << 33, 1<<33 + 1<<18}
	for seed := uint64(1); seed <= 4; seed++ {
		prod, legacy, nw, got, want := newBroadcastPair(n, farDelays{}, func() DropRule { return DropNone }, cut, true)
		bases, far := map[int64]bool{}, 0
		run := prod.run
		prod.run = func(until int64) {
			bases[nw.outBase], far = true, max(far, len(nw.outFar))
			run(until)
		}
		playFarScript(prod, n, seed, stops)
		playFarScript(legacy, n, seed, stops)
		sameDeliveries(t, *got, *want)
		if len(bases) < 4 || far == 0 {
			t.Fatalf("seed %d: %d table bases, at most %d escaped links: the script no longer sweeps and escapes", seed, len(bases), far)
		}
	}
}

// playFarScript runs to each of stops in turn and there sends,
// broadcasts and sets timers that broadcast up to 2¹⁷ ticks later, the
// calls drawn from seed; FIFO links go off at the fourth stop and back
// on at the sixth. Then it runs to idle.
func playFarScript(b *broadcastScript, n int, seed uint64, stops []int64) {
	rng := tape.NewRNG(seed)
	id := 0
	for i, stop := range stops {
		b.run(stop)
		switch i {
		case 3:
			b.setFIFO(false)
		case 5:
			b.setFIFO(true)
		}
		for range 12 {
			id++
			from, to, p := rng.Intn(n), rng.Intn(n), id
			switch rng.Intn(3) {
			case 0:
				b.send(from, to, p)
			case 1:
				b.broadcast(from, p)
			default:
				b.schedule(int64(rng.Intn(1<<17)), func() { b.broadcast(from, p) })
			}
		}
	}
	b.run(math.MaxInt64)
}

// TestFIFOLinkOrderUnderFlatHeap floods one link with same-time sends
// and checks per-link FIFO order survives the scheduler rewrites even
// when the delay model would reorder aggressively.
func TestFIFOLinkOrderUnderFlatHeap(t *testing.T) {
	s := NewSim(97)
	nw := NewNetwork(s, 3, Asynchronous{P: 0.15}) // heavy-tailed delays
	nw.SetFIFO(true)
	var got []int
	nw.AddHandler(1, func(m Message) {
		if m.From == 0 {
			got = append(got, m.Payload.(int))
		}
	})
	for burst := 0; burst < 5; burst++ {
		b := burst
		s.Schedule(int64(10*b), func() {
			for i := 0; i < 20; i++ {
				nw.Send(0, 1, b*20+i)
			}
		})
	}
	s.RunUntilIdle()
	if len(got) != 100 {
		t.Fatalf("delivered %d of 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at position %d: got %d (%v...)", i, v, got[:i+1])
		}
	}
}

// TestDropNthExactUnderFlood checks that DropNth drops exactly its
// target under a broadcast flood on the run queue: every other matching
// message is delivered.
func TestDropNthExactUnderFlood(t *testing.T) {
	s := NewSim(13)
	nw := NewNetwork(s, 4, Synchronous{Delta: 3})
	nw.SetDrop(DropNth(2, DropToProcess(3)))
	var to3 []int
	nw.AddHandler(3, func(m Message) { to3 = append(to3, m.Payload.(int)) })
	for i := 0; i < 3; i++ {
		nw.AddHandler(i, func(Message) {})
	}
	for i := 0; i < 6; i++ {
		i := i
		s.Schedule(int64(i+1), func() { nw.Broadcast(0, i) })
	}
	s.RunUntilIdle()
	// Broadcast i sends one message to p3 per round (plus loopback-free
	// others): the 2nd (0-based) matching one — payload 2 — is dropped.
	if len(to3) != 5 {
		t.Fatalf("p3 received %d messages, want 5: %v", len(to3), to3)
	}
	for _, v := range to3 {
		if v == 2 {
			t.Fatalf("payload 2 should have been dropped: %v", to3)
		}
	}
	_, _, dropped := nw.Stats()
	if dropped != 1 {
		t.Fatalf("dropped %d, want 1", dropped)
	}
}

// BenchmarkSchedulerFlood measures the scheduler cost per flooded
// message, the run queue vs. the legacy closure heap (DESIGN.md
// ablations #6 and #31).
func BenchmarkSchedulerFlood(b *testing.B) {
	const n = 8
	b.Run("run-queue", func(b *testing.B) {
		b.ReportAllocs()
		s := NewSim(1)
		nw := NewNetwork(s, n, Synchronous{Delta: 3})
		for p := 0; p < n; p++ {
			nw.AddHandler(p, func(Message) {})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nw.Broadcast(i%n, i)
			if s.Pending() > 4096 {
				s.RunUntilIdle()
			}
		}
		s.RunUntilIdle()
	})
	b.Run("legacy-closure-heap", func(b *testing.B) {
		b.ReportAllocs()
		s := newLegacySim(1)
		sink := 0
		deliver := func(m Message) { sink += m.To }
		send := func(from, to int, payload any) {
			m := Message{From: from, To: to, Payload: payload}
			var d int64
			if from != to {
				d = Synchronous{Delta: 3}.Delay(s.rng, s.now, from, to)
			}
			s.schedule(d, func() { deliver(m) })
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for to := 0; to < n; to++ {
				send(i%n, to, i)
			}
			if len(s.pq) > 4096 {
				s.runUntilIdle()
			}
		}
		s.runUntilIdle()
	})
}
