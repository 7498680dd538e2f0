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
	m.q.push(event{time: time, seq: m.seq, kind: evDeliver, msg: Message{To: int(m.seq)}})
	s := stamp{time, m.seq}
	i := sort.Search(len(m.model), func(i int) bool { return s.before(m.model[i]) })
	m.model = slices.Insert(m.model, i, s)
}

func (m *queueModel) pop(t testing.TB) {
	got, want := m.q.pop(), m.model[0]
	m.model = m.model[1:]
	m.last = got.time
	if got.time != want.time || got.seq != want.seq || got.msg.To != int(want.seq) {
		t.Fatalf("popped (t=%d seq=%d to=%d), want (t=%d seq=%d to=%d)",
			got.time, got.seq, got.msg.To, want.time, want.seq, want.seq)
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
// pushing and popping allocates nothing — slots, runs, keys and the free
// lists are all reused.
func TestQueueSteadyStateAllocs(t *testing.T) {
	var q queue
	var seq int64
	push := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			q.push(event{time: seq % 17, seq: seq, kind: evDeliver, msg: Message{Payload: seq}})
		}
	}
	push(512)
	for q.len() > 0 {
		q.pop()
	}
	payload := any("p")
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 512; i++ {
			seq++
			q.push(event{time: seq % 17, seq: seq, kind: evDeliver, msg: Message{Payload: payload}})
			if i%3 == 2 {
				q.pop()
				q.pop()
			}
		}
		for q.len() > 0 {
			q.pop()
		}
	})
	if avg != 0 {
		t.Fatalf("%.1f allocations per 512 push/pop cycle at steady state, want 0", avg)
	}
	if len(q.pages) != 1 {
		t.Fatalf("%d pages for a peak of 512 queued events, want 1", len(q.pages))
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
			q.push(event{time: seq % (3 + 11*cycle), seq: seq})
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

// TestQueuePopReleasesReferences: a popped event's slot keeps no callback,
// network or payload alive while it waits on the free list.
func TestQueuePopReleasesReferences(t *testing.T) {
	var q queue
	nw := &Network{}
	q.push(event{time: 2, seq: 1, kind: evTimer, fn: func() {}})
	q.push(event{time: 1, seq: 2, kind: evDeliver, nw: nw, msg: Message{Payload: "x"}})
	q.push(event{time: 3, seq: 3, kind: evDeliver, nw: nw, msg: Message{Payload: "y"}})
	if e := q.pop(); e.nw != nw || e.msg.Payload != "x" {
		t.Fatalf("first pop %+v", e)
	}
	if e := q.pop(); e.fn == nil {
		t.Fatalf("second pop %+v", e)
	}
	free := 0
	for _, p := range q.pages {
		for i := range p.ev {
			s := &p.ev[i]
			if s.seq == 3 {
				continue // still queued
			}
			free++
			if s.fn != nil || s.nw != nil || s.msg.Payload != nil {
				t.Fatalf("released slot %d still references %+v", i, *s)
			}
		}
	}
	if free != pageLen-1 {
		t.Fatalf("%d slots clear, want %d", free, pageLen-1)
	}
	onList := map[int32]bool{}
	for s, k := q.freeSlot, 0; k < pageLen-1; k++ {
		if onList[s] || q.pages[0].ev[s].seq == 3 {
			t.Fatalf("free list reaches slot %d twice or reaches the queued slot", s)
		}
		onList[s] = true
		s = q.pages[0].next[s]
	}
}
