package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/replica"
	"repro/internal/simnet"
)

// event is one unit of work for a node's event loop: either a
// transport delivery (fn is nil) or a closure (client operation, timer
// callback, crash/restart control). done, when set, is signalled after
// fn returns — Do's completion.
type event struct {
	msg  Message
	fn   func()
	done chan struct{}
}

// donePool holds Do's completion channels: one slot each, so the loop's
// signal never blocks, and empty again once Do has received from it.
var donePool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// Node hosts one replica.Process as an actor: a single event-loop
// goroutine owns the process, and every touch — message delivery,
// client append/read, wall-clock timer, crash control — is an event
// executed serially by that loop. Node is process ID's replica.Net port,
// timer included, so the Process and the consensus layer run on the live
// Transport with the code paths the simulator drives through a Port.
type Node struct {
	ID   int
	Proc *replica.Process

	tr Transport
	q  *queue[event]
	wg sync.WaitGroup

	// handlers are the process's registered delivery handlers
	// (replica + anti-entropy). Registered at setup, before the loop
	// starts; read-only afterwards.
	handlers []simnet.Handler

	// down is the live crash flag, set through SetDown: while set,
	// inbound deliveries are dropped and the process neither sends nor
	// operates (replica.Net Down plumbs it into every Process guard).
	down atomic.Bool

	// droppedDown counts deliveries dropped while crashed (loop-only).
	droppedDown int64

	// timers tracks pending wall-clock callbacks so Stop can cancel
	// them (a fired timer merely enqueues; the loop runs it).
	timersMu sync.Mutex
	timers   map[*time.Timer]struct{}
	stopped  bool
}

// NewNode creates node id over the carrier and registers its delivery
// callback. The caller then builds the replica.Process over the node
// (NewProcess registers the handler through AddHandler),
// dials, and calls Start.
func NewNode(id int, tr Transport) (*Node, error) {
	n := &Node{ID: id, tr: tr, q: newQueue[event](), timers: make(map[*time.Timer]struct{})}
	if err := tr.Listen(id, n.deliver); err != nil {
		return nil, err
	}
	return n, nil
}

// deliver enqueues a carrier delivery (called from carrier goroutines
// or peer node loops; non-blocking).
func (n *Node) deliver(m Message) { n.q.push(event{msg: m}) }

// Start launches the event loop. Call after every handler is
// registered and the carrier is dialed.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.loop()
}

// Stop cancels pending timers, closes the inbox and waits for the
// loop to drain what was already queued.
func (n *Node) Stop() {
	n.timersMu.Lock()
	n.stopped = true
	for t := range n.timers {
		t.Stop()
	}
	n.timers = nil
	n.timersMu.Unlock()
	n.q.close()
	n.wg.Wait()
}

func (n *Node) loop() {
	defer n.wg.Done()
	for {
		e, ok := n.q.pop()
		if !ok {
			return
		}
		if e.fn == nil {
			if n.down.Load() {
				n.droppedDown++ // deliveries to a crashed node are lost
				continue
			}
			for _, h := range n.handlers {
				h(e.msg)
			}
			continue
		}
		e.fn()
		if e.done != nil {
			e.done <- struct{}{}
		}
	}
}

// Do executes fn on the node's event loop and waits for it — the
// synchronous entry point client load and deployment control use. It
// reports false (without running fn) when the node has stopped. The
// caller's closure is its only allocation.
func (n *Node) Do(fn func()) bool {
	done := donePool.Get().(chan struct{})
	ok := n.q.push(event{fn: fn, done: done})
	if ok {
		<-done
	}
	donePool.Put(done)
	return ok
}

// After schedules fn to run on the event loop ticks × Tick from now (the
// replica.Net timer). The timer is cancelled by Stop; a callback racing
// Stop finds the queue closed and is dropped.
func (n *Node) After(ticks int64, fn func()) {
	n.timersMu.Lock()
	if n.stopped {
		n.timersMu.Unlock()
		return
	}
	var t *time.Timer
	t = time.AfterFunc(time.Duration(ticks)*Tick, func() {
		n.timersMu.Lock()
		delete(n.timers, t)
		n.timersMu.Unlock()
		n.q.push(event{fn: fn})
	})
	n.timers[t] = struct{}{}
	n.timersMu.Unlock()
}

// --- replica.Net ---

// AddHandler registers a delivery handler. The handler touches only
// this node's process, and the single event loop serializes it.
func (n *Node) AddHandler(h simnet.Handler) {
	n.handlers = append(n.handlers, h)
}

// Send forwards a point-to-point message from this node; a crashed node
// sends nothing (defense in depth — Process guards on Down first).
func (n *Node) Send(to int, payload any) {
	if n.down.Load() {
		return
	}
	_ = n.tr.Send(n.ID, to, payload)
}

// Broadcast floods to every node, loopback included (the recorded
// receive of one's own send is LRC Validity, as in simnet).
func (n *Node) Broadcast(payload any) {
	if n.down.Load() {
		return
	}
	_ = n.tr.Broadcast(n.ID, payload)
}

// Down reports the live crash flag.
func (n *Node) Down() bool { return n.down.Load() }

// SetDown sets the live crash flag.
func (n *Node) SetDown(down bool) { n.down.Store(down) }
