package simnet

import (
	"testing"
	"testing/quick"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim(1)
	var got []int
	s.Schedule(5, func() { got = append(got, 3) })
	s.Schedule(1, func() { got = append(got, 1) })
	s.Schedule(3, func() { got = append(got, 2) })
	s.RunUntilIdle()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order %v", got)
	}
	if s.Now() != 5 {
		t.Fatalf("clock %d", s.Now())
	}
}

func TestSimFIFOAmongSameTime(t *testing.T) {
	s := NewSim(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(7, func() { got = append(got, i) })
	}
	s.RunUntilIdle()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim(1)
	ran := 0
	s.Schedule(5, func() { ran++ })
	s.Schedule(10, func() { ran++ })
	n := s.Run(7)
	if n != 1 || ran != 1 {
		t.Fatalf("Run(7) executed %d", ran)
	}
	if s.Now() != 7 {
		t.Fatalf("clock %d after Run(7)", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending %d", s.Pending())
	}
	s.RunUntilIdle()
	if ran != 2 || s.stepped != 2 {
		t.Fatalf("final ran=%d steps=%d", ran, s.stepped)
	}
}

func TestSimNestedScheduling(t *testing.T) {
	s := NewSim(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 5 {
			s.Schedule(1, rec)
		}
	}
	s.Schedule(1, rec)
	s.RunUntilIdle()
	if depth != 5 {
		t.Fatalf("depth %d", depth)
	}
	if s.Now() != 5 {
		t.Fatalf("time %d", s.Now())
	}
}

func TestSimNegativeDelayClamped(t *testing.T) {
	s := NewSim(1)
	fired := false
	s.Schedule(3, func() {
		s.Schedule(-10, func() { fired = true })
	})
	s.RunUntilIdle()
	if !fired || s.Now() != 3 {
		t.Fatalf("fired=%v now=%d", fired, s.Now())
	}
}

func TestSimAt(t *testing.T) {
	s := NewSim(1)
	var at int64
	s.Schedule(9-s.Now(), func() { at = s.Now() })
	s.RunUntilIdle()
	if at != 9 {
		t.Fatalf("At fired at %d", at)
	}
}

func TestDelayModels(t *testing.T) {
	rng := NewSim(3).RNG()
	sync5 := Synchronous{Delta: 5}
	for i := 0; i < 1000; i++ {
		d := sync5.Delay(rng, 0, 0, 1)
		if d < 1 || d > 5 {
			t.Fatalf("sync delay %d out of [1,5]", d)
		}
	}
	ps := PartialSynchrony{GST: 100, DeltaBefore: 50, DeltaAfter: 4}
	sawBig := false
	for i := 0; i < 1000; i++ {
		if ps.Delay(rng, 0, 0, 1) > 4 {
			sawBig = true
		}
	}
	if !sawBig {
		t.Fatal("pre-GST delays never exceeded the post-GST bound")
	}
	for i := 0; i < 1000; i++ {
		if d := ps.Delay(rng, 200, 0, 1); d < 1 || d > 4 {
			t.Fatalf("post-GST delay %d out of [1,4]", d)
		}
	}
	as := Asynchronous{P: 0.5}
	total := int64(0)
	for i := 0; i < 1000; i++ {
		total += as.Delay(rng, 0, 0, 1)
	}
	mean := float64(total) / 1000
	if mean < 1.5 || mean > 2.5 { // 1 + (1-p)/p = 2
		t.Fatalf("async mean delay %v, want ≈ 2", mean)
	}
}

func TestDelayModelNames(t *testing.T) {
	for _, m := range []DelayModel{Synchronous{5}, PartialSynchrony{10, 50, 5}, Asynchronous{0.2}} {
		if m.Name() == "" {
			t.Fatal("empty delay model name")
		}
	}
}

func TestNetworkDelivery(t *testing.T) {
	s := NewSim(5)
	nw := NewNetwork(s, 3, Synchronous{Delta: 4})
	var got []Message
	for i := 0; i < 3; i++ {
		nw.AddHandler(i, func(m Message) { got = append(got, m) })
	}
	nw.Send(0, 1, "hello")
	s.RunUntilIdle()
	if len(got) != 1 || got[0].From != 0 || got[0].To != 1 || got[0].Payload != "hello" {
		t.Fatalf("delivery %v", got)
	}
	sent, delivered, dropped := nw.Stats()
	if sent != 1 || delivered != 1 || dropped != 0 {
		t.Fatalf("stats %d/%d/%d", sent, delivered, dropped)
	}
}

func TestBroadcastIncludesSelfImmediately(t *testing.T) {
	s := NewSim(5)
	nw := NewNetwork(s, 3, Synchronous{Delta: 9})
	times := map[int]int64{}
	for i := 0; i < 3; i++ {
		i := i
		nw.AddHandler(i, func(Message) { times[i] = s.Now() })
	}
	s.Schedule(10, func() { nw.Broadcast(1, "x") })
	s.RunUntilIdle()
	if len(times) != 3 {
		t.Fatalf("delivered to %d of 3", len(times))
	}
	if times[1] != 10 {
		t.Fatalf("loopback at %d, want 10", times[1])
	}
	for p, tm := range times {
		if tm > 19 {
			t.Fatalf("delivery to %d at %d exceeds δ", p, tm)
		}
	}
}

func TestMultipleHandlersAllSee(t *testing.T) {
	s := NewSim(1)
	nw := NewNetwork(s, 1, nil)
	a, b := 0, 0
	nw.AddHandler(0, func(Message) { a++ })
	nw.AddHandler(0, func(Message) { b++ })
	nw.Send(0, 0, 1)
	s.RunUntilIdle()
	if a != 1 || b != 1 {
		t.Fatalf("handlers saw %d/%d", a, b)
	}
}

func TestDropRules(t *testing.T) {
	s := NewSim(7)
	nw := NewNetwork(s, 3, nil)
	var got []Message
	for i := 0; i < 3; i++ {
		nw.AddHandler(i, func(m Message) { got = append(got, m) })
	}
	nw.SetDrop(DropToProcess(2))
	nw.Send(0, 1, "a")
	nw.Send(0, 2, "b")
	nw.Send(1, 2, "c")
	s.RunUntilIdle()
	if len(got) != 1 || got[0].Payload != "a" {
		t.Fatalf("got %v", got)
	}
	_, _, dropped := nw.Stats()
	if dropped != 2 {
		t.Fatalf("dropped %d", dropped)
	}
}

func TestDropNth(t *testing.T) {
	rule := DropNth(1, DropToProcess(2))
	msgs := []Message{
		{From: 0, To: 2}, // 0th to p2: kept
		{From: 0, To: 1}, // not matching
		{From: 1, To: 2}, // 1st to p2: dropped
		{From: 0, To: 2}, // 2nd: kept
	}
	want := []bool{false, false, true, false}
	for i, m := range msgs {
		if rule(m) != want[i] {
			t.Fatalf("msg %d: drop=%v want %v", i, rule(m), want[i])
		}
	}
}

func TestDropNthDefaultsToAll(t *testing.T) {
	rule := DropNth(0, nil)
	if !rule(Message{}) {
		t.Fatal("0th message kept")
	}
	if rule(Message{}) {
		t.Fatal("1st message dropped")
	}
}

// TestDropFromProcess: a rule on the sender silences it (Lemma 4.4's
// silent sender) and no one else.
func TestDropFromProcess(t *testing.T) {
	s := NewSim(3)
	nw := NewNetwork(s, 3, nil)
	var got []int
	nw.AddHandler(2, func(m Message) { got = append(got, m.From) })
	nw.SetDrop(func(m Message) bool { return m.From == 1 })
	nw.Send(1, 2, "silenced")
	nw.Send(0, 2, "heard")
	s.RunUntilIdle()
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("delivered from %v, want from process 0 alone", got)
	}
}

func TestLoopbackNeverDropped(t *testing.T) {
	s := NewSim(7)
	nw := NewNetwork(s, 2, nil)
	got := 0
	nw.AddHandler(0, func(Message) { got++ })
	nw.SetDrop(func(Message) bool { return true })
	nw.Send(0, 0, "self")
	s.RunUntilIdle()
	if got != 1 {
		t.Fatal("loopback dropped")
	}
}

// TestSetDropRandomDeterministic: i.i.d. loss drawn from the simulator's
// seeded stream is the same on every run of one seed.
func TestSetDropRandomDeterministic(t *testing.T) {
	run := func() int {
		s := NewSim(11)
		nw := NewNetwork(s, 2, nil)
		n := 0
		nw.AddHandler(1, func(Message) { n++ })
		rng := s.RNG().Split()
		nw.SetDrop(func(Message) bool { return rng.Bernoulli(0.5) })
		for i := 0; i < 100; i++ {
			nw.Send(0, 1, i)
		}
		s.RunUntilIdle()
		return n
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("random drops not reproducible: %d vs %d", a, b)
	}
	if a == 0 || a == 100 {
		t.Fatalf("drop rate degenerate: %d/100 delivered", a)
	}
}

func TestSendToUnknownPanics(t *testing.T) {
	s := NewSim(1)
	nw := NewNetwork(s, 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	nw.Send(0, 5, "x")
}

// Property: simulations are deterministic — the same seed yields the
// same event count and final clock for a randomized broadcast workload.
func TestQuickSimDeterminism(t *testing.T) {
	run := func(seed uint64) (int, int64) {
		s := NewSim(seed)
		nw := NewNetwork(s, 4, Synchronous{Delta: 6})
		count := 0
		for i := 0; i < 4; i++ {
			nw.AddHandler(i, func(Message) { count++ })
		}
		for i := 0; i < 20; i++ {
			from := i % 4
			s.Schedule(int64(i), func() { nw.Broadcast(from, i) })
		}
		s.RunUntilIdle()
		return count, s.Now()
	}
	f := func(seed uint64) bool {
		c1, t1 := run(seed)
		c2, t2 := run(seed)
		return c1 == c2 && t1 == t2 && c1 == 80
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPreservesLinkOrder(t *testing.T) {
	s := NewSim(41)
	nw := NewNetwork(s, 2, Synchronous{Delta: 50}) // huge spread: reordering likely
	nw.SetFIFO(true)
	var got []int
	nw.AddHandler(1, func(m Message) { got = append(got, m.Payload.(int)) })
	for i := 0; i < 50; i++ {
		nw.Send(0, 1, i)
	}
	s.RunUntilIdle()
	if len(got) != 50 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, got[:i+1])
		}
	}
}

func TestNonFIFOCanReorder(t *testing.T) {
	s := NewSim(41)
	nw := NewNetwork(s, 2, Synchronous{Delta: 50})
	var got []int
	nw.AddHandler(1, func(m Message) { got = append(got, m.Payload.(int)) })
	for i := 0; i < 50; i++ {
		nw.Send(0, 1, i)
	}
	s.RunUntilIdle()
	reordered := false
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			reordered = true
		}
	}
	if !reordered {
		t.Skip("no reordering sampled at this seed (expected with Δ=50)")
	}
}

func TestFIFOIndependentLinks(t *testing.T) {
	// FIFO is per link: traffic on (0→1) must not delay (2→1).
	s := NewSim(43)
	nw := NewNetwork(s, 3, Synchronous{Delta: 40})
	nw.SetFIFO(true)
	var from2 []int64
	nw.AddHandler(1, func(m Message) {
		if m.From == 2 {
			from2 = append(from2, s.Now())
		}
	})
	for i := 0; i < 30; i++ {
		nw.Send(0, 1, i)
	}
	nw.Send(2, 1, 999)
	s.RunUntilIdle()
	if len(from2) != 1 {
		t.Fatalf("link 2→1 delivered %d", len(from2))
	}
	if from2[0] > 41 {
		t.Fatalf("independent link delayed to %d by foreign traffic", from2[0])
	}
}
