package simnet

import (
	"sort"
	"testing"

	"repro/internal/tape"
)

// TestQueueDifferentialOrder drives the queue with random interleaved
// pushes and pops — duplicate timestamps, sequence numbers pushed out of
// order, and batches parked in a second queue and pushed later with the
// time and seq they were first given — and compares every pop with a
// sort by (time, seq) of what is queued.
func TestQueueDifferentialOrder(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := tape.NewRNG(seed)
		var q, other queue
		var model []event // what q holds
		var seq int64
		fresh := func() event {
			seq++
			return event{time: int64(rng.Intn(12)), seq: seq, kind: evDeliver, msg: Message{To: int(seq)}}
		}
		popOne := func() {
			sort.SliceStable(model, func(i, j int) bool { return model[i].before(&model[j]) })
			got, want := q.pop(), model[0]
			model = model[1:]
			if got.time != want.time || got.seq != want.seq || got.msg.To != want.msg.To {
				t.Fatalf("seed %d: popped (t=%d seq=%d to=%d), want (t=%d seq=%d to=%d)",
					seed, got.time, got.seq, got.msg.To, want.time, want.seq, want.msg.To)
			}
		}
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(10); {
			case r < 4:
				e := fresh()
				q.push(e)
				model = append(model, e)
			case r < 6:
				other.push(fresh()) // parked; migrates later with its old seq
			case r < 7 && other.len() > 0:
				for _, k := range other.keys { // heap order, not (time, seq) order
					e := other.slots[k.slot]
					q.push(e)
					model = append(model, e)
				}
				other = queue{}
			case q.len() > 0:
				popOne()
			}
			if q.len() != len(model) {
				t.Fatalf("seed %d: queue holds %d events, model %d", seed, q.len(), len(model))
			}
		}
		for q.len() > 0 {
			popOne()
		}
	}
}

// before orders events the way the queue must: virtual time, then
// submission order.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// TestQueueSteadyStateAllocs: once the queue has reached its peak length,
// pushing and popping allocates nothing — slots, keys and the free list
// are all reused.
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
	if len(q.slots) > 512 {
		t.Fatalf("slot pool grew to %d for a peak of 512 queued events", len(q.slots))
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
	for i := range q.slots {
		s := &q.slots[i]
		if s.seq == 3 {
			continue // still queued
		}
		free++
		if s.fn != nil || s.nw != nil || s.msg.Payload != nil {
			t.Fatalf("released slot %d still references %+v", i, *s)
		}
	}
	if free != 2 || len(q.free) != 2 {
		t.Fatalf("%d slots cleared, %d on the free list, want 2 and 2", free, len(q.free))
	}
}
