package simnet

// queue is the scheduler's priority queue: a binary min-heap of
// pointer-free (time, seq, slot) keys over a pool of event slots. Sifting
// moves 24-byte keys the garbage collector never looks at — no write
// barrier per swap — while the 72-byte events, which carry the callback,
// network and payload pointers, are written once on push and once on pop.
//
// pop yields events in exact (time, seq) order for any push order: seq is
// unique, so the order is total and independent of heap internals. push
// takes the event's time and seq as given (Sim.schedule assigns them).
type queue struct {
	keys  []qkey
	slots []event
	free  []int32 // slots released by pop, reused before the pool grows
}

type qkey struct {
	time, seq int64
	slot      int32
}

func (k *qkey) before(o *qkey) bool {
	if k.time != o.time {
		return k.time < o.time
	}
	return k.seq < o.seq
}

// len returns the number of queued events; keys[0] is the earliest.
func (q *queue) len() int { return len(q.keys) }

// push inserts e. Steady state allocates nothing: slots and keys are
// reused, and both grow only with the peak queue length.
func (q *queue) push(e event) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slots[slot] = e
	} else {
		slot = int32(len(q.slots))
		q.slots = append(q.slots, e)
	}
	h := append(q.keys, qkey{time: e.time, seq: e.seq, slot: slot})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.keys = h
}

// pop removes and returns the earliest event of a non-empty queue.
func (q *queue) pop() event {
	h := q.keys
	slot := h[0].slot
	e := q.slots[slot]
	q.slots[slot] = event{} // release fn/nw/payload references
	q.free = append(q.free, slot)
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		min := l
		if r < n && h[r].before(&h[l]) {
			min = r
		}
		if !h[min].before(&h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	q.keys = h
	return e
}
