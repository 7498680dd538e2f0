package simnet

// queue is the scheduler's priority queue. Events queued for one virtual
// time form runs: FIFO lists linked through their slots. A binary min-heap
// orders the runs by pointer-free (time, seq of the run's first event,
// run) keys, one key per run, so a pop sifts only when it empties a run
// and a push only when it opens one. A slot is 16 pointer-free bytes, its
// time held by its run: the callback, network and payload it runs live in
// a record (records, below) that every delivery of one broadcast shares,
// so the collector scans neither the keys nor the slot pages.
//
// Pushes must carry ascending seq, as Sim.schedule hands them out; times
// may come in any order. pop then yields exact (time, seq) order: a run
// grows only while the finder points at it, and the finder points only at
// the newest run of its time, so seq ascends within a run, and every
// event of an earlier-opened run of a time precedes the first event of a
// later one.
type queue struct {
	keys     []qkey  // min-heap, one key per open run
	runs     []run   // run pool
	freeRuns []int32 // closed runs, reused before the pool grows
	pages    []*page // slots, added a page at a time; a page never moves
	freeSlot int32   // head of the free slot list, linked through next
	n        int     // queued events; the other slots are free
	// finder holds run+1 of the newest open run of some time t at
	// t & finderMask, or 0. A miss (another time, or none) opens a run.
	finder [finderLen]int32
}

const (
	finderLen  = 16
	finderMask = finderLen - 1
	pageShift  = 9
	pageLen    = 1 << pageShift // slots per page
	pageMask   = pageLen - 1
)

// slot is one queued event: its seq, the process a delivery goes to (−1
// for a timer) and the index of the record it runs.
type slot struct {
	seq int64
	to  int32
	rec int32
}

type page struct {
	ev   [pageLen]slot
	next [pageLen]int32 // next slot of the run, or of the free list
}

// run is a FIFO of queued events of one time, from head to tail.
type run struct {
	time       int64
	head, tail int32
}

type qkey struct {
	time, seq int64
	run       int32
}

func (k *qkey) before(o *qkey) bool {
	if k.time != o.time {
		return k.time < o.time
	}
	return k.seq < o.seq
}

// len returns the number of queued events.
func (q *queue) len() int { return q.n }

// peek returns the time of the earliest event of a non-empty queue.
func (q *queue) peek() int64 { return q.keys[0].time }

// push queues e at time t. Steady state allocates nothing: slots, runs and
// keys are reused, and each grows only with the peak it has to hold.
func (q *queue) push(t int64, e slot) {
	if q.n == len(q.pages)<<pageShift {
		q.grow()
	}
	s := q.freeSlot
	p := q.pages[s>>pageShift]
	q.freeSlot = p.next[s&pageMask]
	p.ev[s&pageMask] = e
	q.n++

	f := &q.finder[t&finderMask]
	if r := *f - 1; r >= 0 && q.runs[r].time == t {
		ru := &q.runs[r]
		q.pages[ru.tail>>pageShift].next[ru.tail&pageMask] = s
		ru.tail = s
		return
	}
	var r int32
	if n := len(q.freeRuns); n > 0 {
		r = q.freeRuns[n-1]
		q.freeRuns = q.freeRuns[:n-1]
	} else {
		r = int32(len(q.runs))
		q.runs = append(q.runs, run{})
	}
	q.runs[r] = run{time: t, head: s, tail: s}
	*f = r + 1
	h := append(q.keys, qkey{time: t, seq: e.seq, run: r})
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

// grow adds a page and makes its slots the free list.
func (q *queue) grow() {
	base := int32(len(q.pages)) << pageShift
	p := new(page)
	for i := range p.next {
		p.next[i] = base + int32(i) + 1
	}
	q.pages = append(q.pages, p)
	q.freeSlot = base
}

// pop removes the earliest event of a non-empty queue and returns its
// time and slot.
func (q *queue) pop() (int64, slot) {
	r := q.keys[0].run
	ru := &q.runs[r]
	t, s := ru.time, ru.head
	p := q.pages[s>>pageShift]
	e := p.ev[s&pageMask]
	next := p.next[s&pageMask]
	p.next[s&pageMask] = q.freeSlot
	q.freeSlot = s
	q.n--
	if s != ru.tail {
		ru.head = next
		return t, e
	}

	// The run is empty: close it and sift its key out of the heap.
	if f := &q.finder[ru.time&finderMask]; *f == r+1 {
		*f = 0
	}
	q.freeRuns = append(q.freeRuns, r)
	h := q.keys
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		lc, rc := 2*i+1, 2*i+2
		if lc >= n {
			break
		}
		min := lc
		if rc < n && h[rc].before(&h[lc]) {
			min = rc
		}
		if !h[min].before(&h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	q.keys = h
	return t, e
}

// peekSeq returns the seq of the earliest event of a non-empty queue: the
// head of the first key's run, which a part-drained run has moved past
// the key's own seq.
func (q *queue) peekSeq() int64 {
	s := q.runs[q.keys[0].run].head
	return q.pages[s>>pageShift].ev[s&pageMask].seq
}

// records holds what queued events run: a timer's callback, or a
// message's network, payload and sender, shared by every slot of one
// Broadcast. Records live in pages that never move, so a record's index
// stays valid while the pool grows, and a freed record goes on a free
// list linked through its page's next array.
type records struct {
	pages []*recPage
	free  int32 // head of the free list
	n     int   // records in use
}

const (
	recShift   = 8
	recPageLen = 1 << recShift // records per page
	recMask    = recPageLen - 1
)

type record struct {
	fn      func()   // a timer's callback
	nw      *Network // a delivery's network
	payload any
	from    int32
	refs    int32 // queued slots that run this record
}

type recPage struct {
	r    [recPageLen]record
	next [recPageLen]int32 // next record of the free list
}

// file stores r with one reference and returns its index.
func (rs *records) file(r record) int32 {
	if rs.n == len(rs.pages)<<recShift {
		base := int32(len(rs.pages)) << recShift
		p := new(recPage)
		for i := range p.next {
			p.next[i] = base + int32(i) + 1
		}
		rs.pages = append(rs.pages, p)
		rs.free = base
	}
	i := rs.free
	p := rs.pages[i>>recShift]
	rs.free = p.next[i&recMask]
	r.refs = 1
	p.r[i&recMask] = r
	rs.n++
	return i
}

// ref adds a reference to record i, for one more slot that runs it.
func (rs *records) ref(i int32) { rs.pages[i>>recShift].r[i&recMask].refs++ }

// take returns a copy of record i for one of its slots, and frees the
// record when that slot was its last, so the copy is all the caller may
// use: a callback it runs may file a record under the same index.
func (rs *records) take(i int32) record {
	p := rs.pages[i>>recShift]
	r := &p.r[i&recMask]
	out := *r
	if r.refs--; r.refs == 0 {
		*r = record{} // release fn/nw/payload references
		p.next[i&recMask] = rs.free
		rs.free = i
		rs.n--
	}
	return out
}
