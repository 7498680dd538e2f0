package history

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// orderSink records the exact interleaved event sequence it receives,
// under a lock so a concurrent consumer goroutine can feed it.
type orderSink struct {
	mu     sync.Mutex
	events []string
}

func (s *orderSink) OpDone(op *Op) {
	s.mu.Lock()
	s.events = append(s.events, "op")
	s.mu.Unlock()
}
func (s *orderSink) CommDone(e CommEvent) {
	s.mu.Lock()
	s.events = append(s.events, "comm")
	s.mu.Unlock()
}
func (s *orderSink) Faulty(p int) {
	s.mu.Lock()
	s.events = append(s.events, "faulty")
	s.mu.Unlock()
}

// TestAsyncSinkPreservesOrder pins the AsyncSink contract: the wrapped
// sink sees the exact event sequence, in recording order, that a
// synchronous sink would — one producer, one consumer, one queue.
func TestAsyncSinkPreservesOrder(t *testing.T) {
	record := func(rec *Recorder) {
		c := streamChain(rec, 4)
		rec.MarkFaulty(1)
		for _, b := range c[1:] {
			rec.Append(0, b, true)
			rec.RecordComm(EvSend, 0, b.Parent, b.ID)
		}
		rec.ReadHead(0, c.Head())
	}

	sync1 := &orderSink{}
	rec := NewRecorder(2, nil)
	rec.SetSink(sync1)
	record(rec)

	async := &orderSink{}
	rec2 := NewRecorder(2, nil)
	as := NewAsyncSink(async, 8) // small buffer: exercise backpressure
	rec2.SetSink(as)
	record(rec2)
	as.Drain()

	if len(sync1.events) != len(async.events) {
		t.Fatalf("async sink saw %d events, sync saw %d", len(async.events), len(sync1.events))
	}
	for i := range sync1.events {
		if sync1.events[i] != async.events[i] {
			t.Fatalf("event %d: async %q != sync %q\nasync: %v\nsync: %v",
				i, async.events[i], sync1.events[i], async.events, sync1.events)
		}
	}
}

// TestAsyncSinkSegmentedEquivalence runs the segmented builder behind
// an AsyncSink and checks the assembled history matches the directly
// sunk one — segment boundaries and op order included.
func TestAsyncSinkSegmentedEquivalence(t *testing.T) {
	build := func(wrap func(Sink) (Sink, func())) *History {
		rec := NewRecorder(1, nil)
		seg, copies := copyingSink(4)
		sink, drain := wrap(seg)
		rec.SetSink(sink)
		rec.SetRetain(false)
		c := streamChain(rec, 10)
		for _, b := range c[1:] {
			rec.Append(0, b, true)
		}
		rec.ReadHead(0, c.Head())
		drain()
		seg.Seal()
		return copies.history(1)
	}

	direct := build(func(s Sink) (Sink, func()) { return s, func() {} })
	async := build(func(s Sink) (Sink, func()) {
		as := NewAsyncSink(s, 0)
		return as, func() {
			if err := as.Drain(); err != nil {
				t.Fatalf("Drain: %v", err)
			}
		}
	})

	if len(direct.Ops) != len(async.Ops) {
		t.Fatalf("async history has %d ops, direct %d", len(async.Ops), len(direct.Ops))
	}
	for i := range direct.Ops {
		if direct.Ops[i].ID != async.Ops[i].ID || direct.Ops[i].Kind != async.Ops[i].Kind {
			t.Fatalf("op %d diverged: async %+v, direct %+v", i, async.Ops[i], direct.Ops[i])
		}
	}
}

// slowSink simulates a consumer slower than the producer, so the
// bounded queue fills and enqueues block — the sustained-backpressure
// regime AsyncSink is specified to survive without losing or
// reordering anything.
type slowSink struct {
	orderSink
	delay time.Duration
}

func (s *slowSink) OpDone(op *Op) {
	time.Sleep(s.delay)
	s.orderSink.OpDone(op)
}

// TestAsyncSinkSustainedBackpressure saturates a tiny queue with a
// deliberately slow consumer: every event must still arrive, in order,
// and the producer-side QueueStats must show the queue ran full.
func TestAsyncSinkSustainedBackpressure(t *testing.T) {
	inner := &slowSink{delay: 100 * time.Microsecond}
	as := NewAsyncSink(inner, 2)
	rec := NewRecorder(1, nil)
	rec.SetSink(as)
	rec.SetRetain(false)

	const n = 200
	c := streamChain(rec, n)
	for _, b := range c[1:] {
		rec.Append(0, b, true)
	}
	as.Drain()

	if got := len(inner.events); got != n {
		t.Fatalf("consumer saw %d events, want %d (backpressure must not drop)", got, n)
	}
	high, blocked, capacity := as.QueueStats()
	if capacity != 2 {
		t.Fatalf("queue capacity %d, want 2", capacity)
	}
	if high < capacity {
		t.Fatalf("high water %d never reached the %d-slot capacity under a slow consumer", high, capacity)
	}
	if blocked == 0 {
		t.Fatal("no enqueue ever blocked under sustained backpressure")
	}
}

// TestAsyncSinkDrainAfterCrashWindow records through a mid-run crash
// window — operations, a fault mark, more operations — and drains:
// the flush must deliver everything already enqueued, with the fault
// mark at exactly the position a synchronous sink would have seen it.
func TestAsyncSinkDrainAfterCrashWindow(t *testing.T) {
	inner := &orderSink{}
	as := NewAsyncSink(inner, 4)
	rec := NewRecorder(2, nil)
	rec.SetSink(as)

	c := streamChain(rec, 7)
	for i, b := range c[1:] {
		rec.Append(0, b, true)
		if i == 2 {
			rec.MarkFaulty(1) // the crash window opens mid-run
		}
	}
	rec.ReadHead(0, c.Head())
	as.Drain()

	want := []string{"op", "op", "op", "faulty", "op", "op", "op", "op", "op"}
	if len(inner.events) != len(want) {
		t.Fatalf("drained %d events, want %d: %v", len(inner.events), len(want), inner.events)
	}
	for i := range want {
		if inner.events[i] != want[i] {
			t.Fatalf("event %d is %q, want %q (full stream: %v)", i, inner.events[i], want[i], inner.events)
		}
	}
	// Drain is terminal: the stats are stable and readable afterwards.
	if high, _, _ := as.QueueStats(); high < 0 {
		t.Fatalf("queue stats unreadable after Drain (high=%d)", high)
	}
}

// panicSink panics on the nth OpDone it receives; everything before
// that is recorded normally.
type panicSink struct {
	orderSink
	panicAt int
	n       int
}

func (s *panicSink) OpDone(op *Op) {
	s.n++
	if s.n == s.panicAt {
		panic("consumer exploded mid-drain")
	}
	s.orderSink.OpDone(op)
}

// TestAsyncSinkConsumerPanic pins the error path live recording made
// reachable: a consumer that panics mid-drain must not kill the
// consumer goroutine (producers would deadlock on a full queue) and
// must not stay silent — Drain surfaces the recovered panic, and the
// events queued after the failure are discarded, not delivered.
func TestAsyncSinkConsumerPanic(t *testing.T) {
	inner := &panicSink{panicAt: 3}
	as := NewAsyncSink(inner, 2) // tiny queue: producers outrun the failure point
	rec := NewRecorder(1, nil)
	rec.SetSink(as)
	rec.SetRetain(false)

	c := streamChain(rec, 10)
	for _, b := range c[1:] {
		rec.Append(0, b, true) // must never block forever on the dead consumer
	}
	err := as.Drain()
	if err == nil {
		t.Fatal("Drain returned nil after the consumer panicked")
	}
	if want := "consumer exploded mid-drain"; !strings.Contains(err.Error(), want) {
		t.Fatalf("Drain error %q does not carry the panic value %q", err, want)
	}
	if got := len(inner.events); got != inner.panicAt-1 {
		t.Fatalf("consumer saw %d events after the panic, want the %d pre-panic ones only", got, inner.panicAt-1)
	}
}

// TestRecorderSlabPointerStability pins the pooled-Op allocator
// contract: *Op pointers handed out (and retained by histories and
// sinks) stay valid and distinct as the slab grows through many chunk
// replacements.
func TestRecorderSlabPointerStability(t *testing.T) {
	rec := NewRecorder(1, nil)
	g := core.Genesis()
	var ptrs []*Op
	for i := 0; i < 3*opSlabChunk+7; i++ {
		op := rec.InvokeRead(0)
		rec.RespondReadHead(op, g)
		ptrs = append(ptrs, op)
	}
	seen := map[*Op]bool{}
	for i, op := range ptrs {
		if op.ID != i {
			t.Fatalf("op %d has ID %d after slab growth — pointer invalidated?", i, op.ID)
		}
		if seen[op] {
			t.Fatalf("op %d shares a pointer with an earlier op", i)
		}
		seen[op] = true
	}
	h := rec.Snapshot()
	if len(h.Ops) != len(ptrs) {
		t.Fatalf("snapshot has %d ops, want %d", len(h.Ops), len(ptrs))
	}
}
