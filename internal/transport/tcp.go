package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// tcpNet carries frames over real TCP on loopback: one connection per
// ordered node pair (from → to), a dedicated writer goroutine per
// connection draining an unbounded send queue, and a reader goroutine
// per inbound connection decoding frames into the receiver's callback.
// Per-peer FIFO holds end to end: single queue → single writer →
// single TCP stream → single reader. Loopback (self) delivery skips
// the socket and invokes the local callback directly, as chanNet does.
//
// Frame ownership: a frame is encoded once, by encodeFrame, and is
// immutable from the moment it is pushed onto a link's queue. Broadcast
// pushes the one []byte onto every peer's queue, so n-1 writeLoops read
// the same bytes concurrently; none of them, and nothing after push, may
// write to it.
//
// Read buffer: each readLoop decodes every frame out of one buffer it
// reuses, which the next frame overwrites. That is sound only because a
// decoded payload copies what it keeps or is the interned block — never a
// view of the buffer (decoder.str and decoder.bytes copy, decoder.interned
// only compares; TestReadBufferIsNotAliased and FuzzFrameCodec hold it to
// that).
//
// Shared blocks: the nodes of a deployment share one process and the run's
// core.Index, so an update frame whose block some tree already accepted
// decodes to the index's *core.Block, the object chanNet would have
// delivered, instead of a per-peer copy that each tree would hold and hash
// again. Reader goroutines only read the index; node loops intern into it.
type tcpNet struct {
	n     int
	addrs []string    // resolved listen addresses, indexed by node
	idx   *core.Index // the run's block index; nil decodes every block afresh

	mu     sync.Mutex
	recv   []func(Message)
	ln     []net.Listener
	out    [][]*sendLink // out[from][to]; nil diagonal
	closed bool

	wg        sync.WaitGroup
	sent      atomic.Int64
	delivered atomic.Int64
}

// sendLink is one outbound connection and its writer queue.
type sendLink struct {
	q    *queue[[]byte]
	conn net.Conn
}

// newTCPNet builds the carrier for the roster. Empty peer addresses
// mean "127.0.0.1:0" — a kernel-assigned loopback port, resolved at
// Listen time (the usual case for single-host deployments and tests).
// idx is the run's block index, or nil.
func newTCPNet(roster *Roster, idx *core.Index) (*tcpNet, error) {
	n := roster.N()
	t := &tcpNet{
		n:     n,
		idx:   idx,
		addrs: make([]string, n),
		recv:  make([]func(Message), n),
		ln:    make([]net.Listener, n),
		out:   make([][]*sendLink, n),
	}
	for i, p := range roster.Peers {
		t.addrs[i] = p.Addr
		if t.addrs[i] == "" {
			t.addrs[i] = "127.0.0.1:0"
		}
		t.out[i] = make([]*sendLink, n)
	}
	return t, nil
}

func (t *tcpNet) Name() string { return "tcp" }

// Listen binds node id's listener and starts its accept loop. The
// resolved address (kernel-assigned port) replaces the ":0" request so
// later Dials find it.
func (t *tcpNet) Listen(id int, recv func(Message)) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || id >= t.n {
		return fmt.Errorf("transport: listen on unknown node %d", id)
	}
	ln, err := net.Listen("tcp", t.addrs[id])
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", t.addrs[id], err)
	}
	t.addrs[id] = ln.Addr().String()
	t.ln[id] = ln
	t.recv[id] = recv
	t.wg.Add(1)
	go t.acceptLoop(id, ln)
	return nil
}

func (t *tcpNet) acceptLoop(id int, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(id, conn)
	}
}

// frameCap sizes a fresh frame so that a flooded block (≈ 215 B with
// two 64-byte hex IDs and a token) is encoded without regrowing.
const frameCap = 256

// readBufKeep is the largest read buffer a readLoop holds on to between
// frames; one oversized frame must not pin up to maxFrame per connection.
const readBufKeep = 64 << 10

// readLoop decodes the peer handshake then frames until the connection
// drops. A frame is counted delivered once the receiver's inbox has it.
func (t *tcpNet) readLoop(id int, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	r := bufio.NewReader(conn)
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	from := int(binary.LittleEndian.Uint32(hdr[:]))
	if from < 0 || from >= t.n {
		return
	}
	var buf []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		size := binary.LittleEndian.Uint32(hdr[:])
		if size == 0 || size > maxFrame {
			return
		}
		if cap(buf) < int(size) {
			buf = make([]byte, max(int(size), 2*cap(buf)))
		}
		body := buf[:size]
		if _, err := io.ReadFull(r, body); err != nil {
			return
		}
		payload, err := decodePayload(body, t.idx)
		if err != nil {
			return
		}
		t.recv[id](Message{From: from, To: id, Payload: payload})
		t.delivered.Add(1)
		if cap(buf) > readBufKeep {
			buf = nil
		}
	}
}

// Dial connects node id to every peer and starts the writer
// goroutines. Every node must have Listened first.
func (t *tcpNet) Dial(id int) error {
	for to := 0; to < t.n; to++ {
		if to == id {
			continue // loopback is delivered locally in Send
		}
		t.mu.Lock()
		addr := t.addrs[to]
		t.mu.Unlock()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return fmt.Errorf("transport: dial node %d (%s): %w", to, addr, err)
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(id))
		if _, err := conn.Write(hdr[:]); err != nil {
			conn.Close()
			return fmt.Errorf("transport: handshake to node %d: %w", to, err)
		}
		link := &sendLink{q: newQueue[[]byte](), conn: conn}
		t.mu.Lock()
		t.out[id][to] = link
		t.mu.Unlock()
		t.wg.Add(1)
		go t.writeLoop(link)
	}
	return nil
}

// writeLoop drains one link's queue onto its connection. Frames arrive
// encoded and possibly shared with other links, so the loop is a pure
// byte pump that only reads them.
func (t *tcpNet) writeLoop(link *sendLink) {
	defer t.wg.Done()
	w := bufio.NewWriter(link.conn)
	for {
		frame, ok := link.q.pop()
		if !ok {
			return
		}
		// Coalesce: flush only when the queue runs dry, so bursts of
		// small frames share syscalls.
		if _, err := w.Write(frame); err != nil {
			return
		}
		if link.q.depth() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// encodeFrame encodes payload as one length-prefixed frame.
func encodeFrame(payload any) ([]byte, error) {
	buf, err := AppendPayload(make([]byte, 4, frameCap), payload)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	return buf, nil
}

// Send encodes the payload into a frame and queues it on the (from,
// to) link; self-sends deliver locally without touching a socket.
func (t *tcpNet) Send(from, to int, payload any) error {
	if to < 0 || to >= t.n {
		return fmt.Errorf("transport: send to unknown node %d", to)
	}
	if to == from {
		t.loopback(from, payload)
		return nil
	}
	frame, err := encodeFrame(payload)
	if err != nil {
		return err
	}
	return t.enqueue(from, to, frame)
}

// Broadcast encodes the payload once and queues that one frame on every
// link out of from — the paper's single send(b_g, b) event with n
// receives.
func (t *tcpNet) Broadcast(from int, payload any) error {
	frame, err := encodeFrame(payload)
	if err != nil {
		return err
	}
	for to := 0; to < t.n; to++ {
		if to == from {
			t.loopback(from, payload)
		} else if err := t.enqueue(from, to, frame); err != nil {
			return err
		}
	}
	return nil
}

// loopback hands a node its own payload, undecoded.
func (t *tcpNet) loopback(id int, payload any) {
	t.sent.Add(1)
	t.recv[id](Message{From: id, To: id, Payload: payload})
	t.delivered.Add(1)
}

// enqueue pushes an encoded frame onto the (from, to) link. Only a frame
// a writer will see is counted sent: a refused one would leave sent and
// delivered apart for good, and settle waiting on them.
func (t *tcpNet) enqueue(from, to int, frame []byte) error {
	t.mu.Lock()
	link := t.out[from][to]
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return fmt.Errorf("transport: send on closed carrier")
	}
	if link == nil {
		return fmt.Errorf("transport: node %d has not dialed node %d", from, to)
	}
	// Counted before the push, so delivered never runs ahead of sent.
	t.sent.Add(1)
	if !link.q.push(frame) {
		t.sent.Add(-1)
		return fmt.Errorf("transport: send on closed carrier")
	}
	return nil
}

// Close shuts listeners and connections down and waits for every
// carrier goroutine. Undelivered queued frames are dropped — callers
// quiesce the load before closing.
func (t *tcpNet) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, ln := range t.ln {
		if ln != nil {
			ln.Close()
		}
	}
	for _, row := range t.out {
		for _, link := range row {
			if link != nil {
				link.q.close()
				link.conn.Close()
			}
		}
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

// Stats reports (sent, delivered) frame counters.
func (t *tcpNet) Stats() (sent, delivered int64) {
	return t.sent.Load(), t.delivered.Load()
}
