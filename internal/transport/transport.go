// Package transport runs the replicated BlockTree as a *live*
// deployment: N transport.Nodes, each hosting one replica.Process,
// exchanging update/anti-entropy messages over a real carrier instead
// of the deterministic simnet scheduler. Two carriers are provided —
// chanNet (in-process, per-node queues; the fast default) and tcpNet
// (length-prefixed frames over loopback TCP; see tcp.go) — behind one
// Transport interface, in the conode spirit: the same Process code
// runs identically under simulation and deployment, and the streaming
// consistency.Monitor checks the live history online through the same
// history.Sink plumbing the simulators use.
//
// Concurrency model: each Node is an actor. One event-loop goroutine
// owns the (deliberately not thread-safe) replica.Process; transport
// deliveries, client operations, and wall-clock timers are enqueued as
// events and executed serially by that loop. All nodes share one
// history.Recorder — its mutex makes it the sequencing collector that
// totally orders the ops the online monitor consumes.
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/tape"
)

// Message is one inter-node message in flight. It reuses the simnet
// envelope so replica handlers (simnet.Handler) run unchanged on live
// carriers.
type Message = simnet.Message

// Transport carries messages between the n nodes of a deployment with
// per-peer FIFO ordering: messages sent from a to b are delivered to b
// in send order (interleaving across senders is unconstrained). This
// is the "reliable FIFO channel" assumption of the paper's Section 5
// mappings, which the orphan-buffer bound and anti-entropy segment
// repair rely on.
type Transport interface {
	// Listen registers node id's delivery callback. recv must be
	// non-blocking (Nodes enqueue into an unbounded inbox); it may be
	// invoked from carrier goroutines.
	Listen(id int, recv func(Message)) error
	// Dial establishes id's outbound links to every peer. Call after
	// every node has Listened.
	Dial(id int) error
	// Send queues payload from one node to another (loopback included:
	// from == to delivers back to the sender, matching simnet).
	Send(from, to int, payload any) error
	// Broadcast sends payload from id to every node, itself included
	// (the loopback receive is how LRC Validity is recorded).
	Broadcast(from int, payload any) error
	// Close tears every link down and stops carrier goroutines.
	Close() error
	// Name identifies the carrier ("chan", "tcp") in results.
	Name() string
}

// Roster is the deployment's membership: one entry per node, replacing
// the simnet topology. Addr is carrier-specific ("" for chanNet,
// "host:port" for tcpNet); Merit is the node's α_p exactly as in the
// simulated runs.
type Roster struct {
	Peers []Peer
}

// Peer is one roster entry.
type Peer struct {
	ID    int
	Addr  string
	Merit tape.Merit
}

// NewRoster builds an n-node roster with the given normalized merits
// (nil means uniform) and optional addresses.
func NewRoster(n int, merits []tape.Merit, addrs []string) *Roster {
	r := &Roster{}
	for i := 0; i < n; i++ {
		p := Peer{ID: i, Merit: tape.Merit(1 / float64(n))}
		if i < len(merits) {
			p.Merit = merits[i]
		}
		if i < len(addrs) {
			p.Addr = addrs[i]
		}
		r.Peers = append(r.Peers, p)
	}
	return r
}

// N reports the roster size.
func (r *Roster) N() int { return len(r.Peers) }

// New builds the named carrier for an n-node roster: "chan" (default
// when empty) or "tcp".
func New(name string, roster *Roster) (Transport, error) {
	return newCarrier(name, roster, nil)
}

// newCarrier is New for a deployment whose trees share idx: tcpNet decodes
// an update frame of an accepted block to idx's copy (tcp.go). chanNet
// delivers the sender's block as it is and needs no index.
func newCarrier(name string, roster *Roster, idx *core.Index) (Transport, error) {
	switch name {
	case "", "chan":
		return newChanNet(roster.N()), nil
	case "tcp":
		return newTCPNet(roster, idx)
	default:
		return nil, fmt.Errorf("transport: unknown carrier %q (known: chan, tcp)", name)
	}
}

// chanNet is the in-process carrier: Send looks up the receiver's
// callback and invokes it directly. FIFO per peer holds because each
// node's sends happen serially on its event loop, and the receiving
// callback is a mutex-guarded enqueue. No carrier goroutines exist —
// all concurrency lives in the node event loops.
type chanNet struct {
	mu        sync.RWMutex
	recv      []func(Message)
	closed    bool
	sent      atomic.Int64
	delivered atomic.Int64
}

func newChanNet(n int) *chanNet {
	return &chanNet{recv: make([]func(Message), n)}
}

func (c *chanNet) Name() string { return "chan" }

func (c *chanNet) Listen(id int, recv func(Message)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.recv) {
		return fmt.Errorf("transport: listen on unknown node %d", id)
	}
	c.recv[id] = recv
	return nil
}

func (c *chanNet) Dial(int) error { return nil }

func (c *chanNet) Send(from, to int, payload any) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return fmt.Errorf("transport: send on closed carrier")
	}
	if to < 0 || to >= len(c.recv) {
		return fmt.Errorf("transport: send to unknown node %d", to)
	}
	fn := c.recv[to]
	if fn == nil {
		return fmt.Errorf("transport: node %d is not listening", to)
	}
	c.sent.Add(1)
	fn(Message{From: from, To: to, Payload: payload})
	c.delivered.Add(1)
	return nil
}

func (c *chanNet) Broadcast(from int, payload any) error {
	for to := range c.recv {
		if err := c.Send(from, to, payload); err != nil {
			return err
		}
	}
	return nil
}

func (c *chanNet) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// Stats reports (sent, delivered) counters.
func (c *chanNet) Stats() (sent, delivered int64) {
	return c.sent.Load(), c.delivered.Load()
}

// queue is an unbounded MPSC FIFO. Unbounded is a correctness choice,
// not laziness: with bounded inboxes two node loops can deadlock
// sending into each other's full queues (the classic bounded-buffer
// cycle); unbounded queues keep Send non-blocking so the flood graph
// can never cycle-wait. Memory stays bounded in practice by the
// in-flight load. Node inboxes and TCP writer queues both build on it.
// A queue moves its items and never looks inside them: tcpNet queues one
// []byte frame on many links at once, so an item may be shared and is
// read-only from push on (tcp.go's header has the rule).
type queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	head   int
	closed bool
}

func newQueue[T any]() *queue[T] {
	q := &queue[T]{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues e; returns false after close.
func (q *queue[T]) push(e T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, e)
	q.cond.Signal()
	return true
}

// pop dequeues the next item, blocking until one arrives or the queue
// closes; ok is false only when the queue is closed and empty.
func (q *queue[T]) pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head >= len(q.items) {
		var zero T
		return zero, false
	}
	e := q.items[q.head]
	var zero T
	q.items[q.head] = zero // release references
	q.head++
	if q.head > 256 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return e, true
}

// close wakes the consumer; queued items still drain.
func (q *queue[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// depth reports the current queue length (diagnostics).
func (q *queue[T]) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}
