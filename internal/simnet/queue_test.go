package simnet

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"repro/internal/tape"
)

// queueModel drives a queue the way Sim.schedule does — ascending seq,
// times in any order — beside a reference slice of (time, seq) stamps
// kept sorted, and checks every pop against the slice's head.
type queueModel struct {
	q     queue
	model []stamp
	seq   int64
	last  int64 // time of the last pop
}

// stamp is what the model keeps of an event. The queue must pop in
// virtual time, then submission order.
type stamp struct{ time, seq int64 }

func (a stamp) before(b stamp) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (m *queueModel) push(time int64) {
	m.seq++
	m.q.push(time, slot{seq: m.seq, to: int32(m.seq), rec: int32(-m.seq)})
	s := stamp{time, m.seq}
	i := sort.Search(len(m.model), func(i int) bool { return s.before(m.model[i]) })
	m.model = slices.Insert(m.model, i, s)
}

func (m *queueModel) pop(t testing.TB) {
	at, got := m.q.pop()
	want := m.model[0]
	m.model = m.model[1:]
	m.last = at
	if at != want.time || got.seq != want.seq || got.to != int32(want.seq) || got.rec != int32(-want.seq) {
		t.Fatalf("popped (t=%d seq=%d to=%d rec=%d), want (t=%d seq=%d to=%d rec=%d)",
			at, got.seq, got.to, got.rec, want.time, want.seq, want.seq, -want.seq)
	}
	if m.q.len() != len(m.model) {
		t.Fatalf("queue holds %d events, model %d", m.q.len(), len(m.model))
	}
}

func (m *queueModel) drain(t testing.TB) {
	for len(m.model) > 0 {
		m.pop(t)
	}
	if m.q.len() != 0 {
		t.Fatalf("queue holds %d events after the model drained", m.q.len())
	}
}

// TestQueueDifferentialOrder drives the queue with random interleaved
// pushes and pops, each case aiming its push times at one way runs open,
// grow and close, and compares every pop with the (time, seq) model.
func TestQueueDifferentialOrder(t *testing.T) {
	cases := []struct {
		name     string
		pushPct  int // share of steps that push
		minPages int // the case must have crossed a page boundary
		time     func(rng *tape.RNG, last int64) int64
	}{
		{"random times", 40, 1, func(rng *tape.RNG, _ int64) int64 { return int64(rng.Intn(12)) }},
		{"delay 0 into the run being drained", 50, 1, func(rng *tape.RNG, last int64) int64 {
			if rng.Intn(2) == 0 {
				return last
			}
			return last + 1 + int64(rng.Intn(3))
		}},
		{"times colliding in the finder", 50, 1, func(rng *tape.RNG, _ int64) int64 {
			return 3 + finderLen*int64(rng.Intn(3))
		}},
		{"a run closed and reopened at its time", 30, 1, func(*tape.RNG, int64) int64 { return 5 }},
		{"across page boundaries", 70, 2, func(rng *tape.RNG, _ int64) int64 { return int64(rng.Intn(40)) }},
		{"times before the last pop", 50, 1, func(rng *tape.RNG, last int64) int64 {
			return last + 2 - int64(rng.Intn(6))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 10; seed++ {
				rng := tape.NewRNG(seed)
				var m queueModel
				for step := 0; step < 2000; step++ {
					if rng.Intn(100) < c.pushPct {
						m.push(c.time(rng, m.last))
					} else if len(m.model) > 0 {
						m.pop(t)
					}
				}
				if len(m.q.pages) < c.minPages {
					t.Fatalf("seed %d: %d pages, the case needs %d", seed, len(m.q.pages), c.minPages)
				}
				m.drain(t)
			}
		})
	}
}

// FuzzQueueOrder holds the queue to the (time, seq) model on a
// fuzz-chosen script of byte pairs (op, arg): op%4 == 0 pops, anything
// else pushes 1+op/4 events at the last popped time plus int8(arg), up
// to four pages of queued events. Scripts are cut at 512 pairs, which
// keeps an execution under a few milliseconds.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{1, 0, 1, 16, 1, 0, 1, 16, 0, 0, 1, 0, 0, 0, 1, 0}) // t and t+16 interleaved, delay 0
	f.Add([]byte{1, 5, 0, 0, 1, 0, 0, 0})                           // a run closed, its index reused at its time
	f.Add(append(bytes.Repeat([]byte{255, 0}, 9), 0, 0, 9, 0xfb))   // a page crossed, then an earlier time
	f.Fuzz(func(t *testing.T, script []byte) {
		var m queueModel
		for i := 0; i+1 < min(len(script), 1024); i += 2 {
			op, arg := script[i], script[i+1]
			if op%4 == 0 {
				if len(m.model) > 0 {
					m.pop(t)
				}
				continue
			}
			for k := 0; k <= int(op/4) && len(m.model) < 4*pageLen; k++ {
				m.push(m.last + int64(int8(arg)))
			}
		}
		m.drain(t)
	})
}

// TestQueueSteadyStateAllocs: once the queue has reached its peak length,
// pushing and popping allocates nothing — slots, runs, keys, records and
// the free lists are all reused.
func TestQueueSteadyStateAllocs(t *testing.T) {
	var q queue
	var rs records
	var seq int64
	payload := any("p")
	push := func() {
		seq++
		q.push(seq%17, slot{seq: seq, to: int32(seq % 5), rec: rs.file(record{payload: payload})})
	}
	pop := func() {
		_, e := q.pop()
		rs.take(e.rec)
	}
	for i := 0; i < 512; i++ {
		push()
	}
	for q.len() > 0 {
		pop()
	}
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 512; i++ {
			push()
			if i%3 == 2 {
				pop()
				pop()
			}
		}
		for q.len() > 0 {
			pop()
		}
	})
	if avg != 0 {
		t.Fatalf("%.1f allocations per 512 push/pop cycle at steady state, want 0", avg)
	}
	if len(q.pages) != 1 || len(rs.pages) != 512/recPageLen || rs.n != 0 {
		t.Fatalf("%d slot pages, %d record pages and %d records in use after a peak of 512 queued events, want 1, %d and 0",
			len(q.pages), len(rs.pages), rs.n, 512/recPageLen)
	}
}

// TestQueueMemoryBoundedByPeak: drained and refilled to the same peak
// over and over, with a different spread of times each cycle, the queue
// holds ⌈peak/512⌉ pages and no more runs than were ever open at once.
func TestQueueMemoryBoundedByPeak(t *testing.T) {
	const peak = 1300
	var q queue
	var seq int64
	openRuns := 0
	for cycle := int64(0); cycle < 6; cycle++ {
		for q.len() < peak {
			seq++
			q.push(seq%(3+11*cycle), slot{seq: seq})
			openRuns = max(openRuns, len(q.keys))
			if seq%5 == 0 {
				q.pop()
			}
		}
		for q.len() > 0 {
			q.pop()
		}
	}
	if want := (peak + pageLen - 1) / pageLen; len(q.pages) != want {
		t.Fatalf("%d pages after refilling to %d events, want %d", len(q.pages), peak, want)
	}
	if len(q.runs) > openRuns {
		t.Fatalf("run pool of %d for at most %d open runs", len(q.runs), openRuns)
	}
}

// freeRecords walks the record pool's free list and fails unless it
// holds every index not in use exactly once; it returns the set.
func freeRecords(t *testing.T, rs *records) map[int32]bool {
	t.Helper()
	free := map[int32]bool{}
	for i, k := rs.free, 0; k < len(rs.pages)<<recShift-rs.n; k++ {
		if free[i] {
			t.Fatalf("the free list reaches record %d twice", i)
		}
		free[i] = true
		i = rs.pages[i>>recShift].next[i&recMask]
	}
	return free
}

// TestQueuePopReleasesReferences: a record lives while a queued slot
// still runs it — a broadcast delivered to some of its recipients keeps
// its record — and once its last slot pops it keeps no callback, network
// or payload alive and its index is on the free list. A broadcast whose
// every send is lost files no record.
func TestQueuePopReleasesReferences(t *testing.T) {
	s := NewSim(1)
	nw := NewNetwork(s, 3, Synchronous{Delta: 1}) // loopback at delay 0, the others at 1
	delivered := 0
	for p := 0; p < 3; p++ {
		nw.AddHandler(p, func(m Message) {
			if m.From != 0 || m.To != p || m.Payload != "x" {
				t.Fatalf("process %d got %+v", p, m)
			}
			delivered++
		})
	}
	s.Schedule(5, func() {})
	nw.Broadcast(0, "x")
	const timer, bc = 0, 1 // filing order
	r := &s.recs.pages[0].r[bc]
	if s.recs.n != 2 || r.refs != 3 || r.nw != nw || r.payload != "x" || s.recs.pages[0].r[timer].fn == nil {
		t.Fatalf("%d records in use, broadcast record %+v", s.recs.n, *r)
	}
	s.Run(0)
	if delivered != 1 || r.refs != 2 || r.nw != nw || r.payload != "x" {
		t.Fatalf("after the loopback delivery: %d delivered, broadcast record %+v", delivered, *r)
	}
	s.Run(1)
	if delivered != 3 || r.fn != nil || r.nw != nil || r.payload != nil || r.refs != 0 {
		t.Fatalf("after the last delivery: %d delivered, broadcast record %+v", delivered, *r)
	}
	if free := freeRecords(t, &s.recs); !free[bc] || free[timer] || s.recs.n != 1 {
		t.Fatalf("free list %v with %d records in use; want the broadcast's index free, the timer's in use", free, s.recs.n)
	}
	s.RunUntilIdle()
	if t0 := s.recs.pages[0].r[timer]; t0.fn != nil || s.recs.n != 0 || len(freeRecords(t, &s.recs)) != recPageLen {
		t.Fatalf("after the timer: record %+v, %d in use", t0, s.recs.n)
	}

	nw.Port(0).SetDown(true)
	nw.Broadcast(0, "y")
	if _, _, dropped := nw.Stats(); dropped != 3 || s.recs.n != 0 || s.Pending() != 0 {
		t.Fatalf("a broadcast from a crashed process: %d dropped, %d records, %d pending", dropped, s.recs.n, s.Pending())
	}
}

// TestBroadcastIsOneRecord: one broadcast to 512 processes queues 512
// slots that all run one record, also when some of its sends are lost,
// and at steady state a broadcast and its deliveries allocate nothing.
func TestBroadcastIsOneRecord(t *testing.T) {
	const n = 512
	s := NewSim(1)
	nw := NewNetwork(s, n, Synchronous{Delta: 4})
	delivered := 0
	for p := 0; p < n; p++ {
		nw.AddHandler(p, func(m Message) {
			if m.From != 7 || m.To != p || m.Payload != "b" {
				t.Fatalf("process %d got %+v", p, m)
			}
			delivered++
		})
	}
	nw.Broadcast(7, "b")
	if s.Pending() != n || s.recs.n != 1 || len(s.recs.pages) != 1 || len(s.pq.pages) != n/pageLen {
		t.Fatalf("%d pending in %d slot pages, %d records in %d pages; want %d, %d, 1, 1",
			s.Pending(), len(s.pq.pages), s.recs.n, len(s.recs.pages), n, n/pageLen)
	}
	if refs := s.recs.pages[0].r[0].refs; refs != n {
		t.Fatalf("the record has %d references, want %d", refs, n)
	}
	to := map[int32]bool{}
	for _, p := range s.pq.pages {
		for _, e := range p.ev {
			if e.rec != 0 || to[e.to] {
				t.Fatalf("slot %+v: a second record, or a second slot for its process", e)
			}
			to[e.to] = true
		}
	}
	if s.RunUntilIdle(); delivered != n || s.recs.n != 0 {
		t.Fatalf("%d delivered, %d records left", delivered, s.recs.n)
	}
	payload := any("b")
	if a := testing.AllocsPerRun(20, func() { nw.Broadcast(7, payload); s.RunUntilIdle() }); a != 0 {
		t.Fatalf("%.1f allocations per broadcast and its %d deliveries, want 0", a, n)
	}

	// Sends lost before and between the queued ones do not split it.
	nw.SetDrop(func(m Message) bool { return m.To%2 == 0 })
	nw.Broadcast(7, "b")
	if s.Pending() != n/2 || s.recs.n != 1 {
		t.Fatalf("a broadcast with every even recipient dropped: %d pending, %d records", s.Pending(), s.recs.n)
	}
}
