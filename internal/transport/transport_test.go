package transport

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/replica"
)

func TestQueueFIFOAndClose(t *testing.T) {
	q := newQueue[int]()
	for i := 0; i < 1000; i++ {
		if !q.push(i) {
			t.Fatalf("push %d rejected before close", i)
		}
	}
	for i := 0; i < 1000; i++ {
		v, ok := q.pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got (%d, %v)", i, v, ok)
		}
	}
	q.push(42)
	q.close()
	if q.push(43) {
		t.Fatal("push accepted after close")
	}
	if v, ok := q.pop(); !ok || v != 42 {
		t.Fatalf("close dropped the queued element: (%d, %v)", v, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop succeeded on a drained closed queue")
	}
}

// carrierFIFO drives n0 → n1 with a burst of distinguishable frames and
// asserts per-pair FIFO delivery end to end.
func carrierFIFO(t *testing.T, name string) {
	t.Helper()
	const total = 500
	roster := NewRoster(2, nil, nil)
	tr, err := New(name, roster)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	var mu sync.Mutex
	var got []core.BlockID
	done := make(chan struct{})
	if err := tr.Listen(0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	err = tr.Listen(1, func(m Message) {
		req, ok := m.Payload.(replica.ReqMsg)
		if !ok {
			t.Errorf("unexpected payload %T", m.Payload)
			return
		}
		mu.Lock()
		got = append(got, req.ID)
		if len(got) == total {
			close(done)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		if err := tr.Dial(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		if err := tr.Send(0, 1, replica.ReqMsg{ID: core.BlockID(fmt.Sprintf("b%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	for i, id := range got {
		if want := core.BlockID(fmt.Sprintf("b%d", i)); id != want {
			t.Fatalf("delivery %d: got %s, want %s (FIFO broken)", i, id, want)
		}
	}
}

func TestChanNetFIFO(t *testing.T) { carrierFIFO(t, "chan") }
func TestTCPNetFIFO(t *testing.T)  { carrierFIFO(t, "tcp") }

// TestTCPNetRoundTrip sends a full update (block payload) both ways over
// real sockets and checks content fidelity plus the Stats counters.
func TestTCPNetRoundTrip(t *testing.T) {
	roster := NewRoster(2, nil, nil)
	tr, err := New("tcp", roster)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	blk := core.NewBlock("b0", 1, 1, 7, []byte{9, 8, 7}).WithToken("tok(b0)")
	recv := make([]chan replica.UpdateMsg, 2)
	for id := 0; id < 2; id++ {
		id := id
		recv[id] = make(chan replica.UpdateMsg, 1)
		err := tr.Listen(id, func(m Message) {
			if up, ok := m.Payload.(replica.UpdateMsg); ok {
				recv[id] <- up
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 2; id++ {
		if err := tr.Dial(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Send(0, 1, replica.UpdateMsg{Parent: blk.Parent, Block: blk}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(1, 0, replica.UpdateMsg{Parent: blk.Parent, Block: blk}); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		up := <-recv[id]
		if up.Block.ID != blk.ID || up.Block.Token != blk.Token ||
			up.Block.Height != blk.Height || string(up.Block.Payload) != string(blk.Payload) {
			t.Fatalf("node %d: block mangled in transit: %+v", id, up.Block)
		}
	}
	if sent, delivered := tr.(*tcpNet).Stats(); sent != 2 || delivered != 2 {
		t.Fatalf("stats: sent=%d delivered=%d, want 2/2", sent, delivered)
	}
}

func TestNewRejectsUnknownCarrier(t *testing.T) {
	if _, err := New("smoke-signals", NewRoster(2, nil, nil)); err == nil {
		t.Fatal("unknown carrier accepted")
	}
}

// bareTCPNet is a tcpNet whose node 0 has a writer queue to every peer
// and nothing behind them — no sockets, no goroutines — so that what
// Broadcast itself allocates and queues can be counted.
func bareTCPNet(n int) *tcpNet {
	tr, _ := newTCPNet(NewRoster(n, nil, nil), nil)
	tr.recv[0] = func(Message) {}
	for to := 1; to < n; to++ {
		tr.out[0][to] = &sendLink{q: newQueue[[]byte]()}
	}
	return tr
}

// TestBroadcastEncodesOnce: a broadcast is one encode, whatever the
// roster size — every peer's queue holds the same frame, and the
// allocations of a Broadcast do not grow with N.
func TestBroadcastEncodesOnce(t *testing.T) {
	var payload any = replica.UpdateMsg{Parent: "b12", Block: testBlock()}
	allocs := func(n int) float64 {
		tr := bareTCPNet(n)
		frames := make([][]byte, n-1)
		round := func() {
			if err := tr.Broadcast(0, payload); err != nil {
				t.Fatal(err)
			}
			for to := 1; to < n; to++ {
				frames[to-1], _ = tr.out[0][to].q.pop()
			}
		}
		round()
		for i, f := range frames {
			if len(f) == 0 || &f[0] != &frames[0][0] {
				t.Fatalf("n=%d: link %d was queued its own frame, not the shared one", n, i+1)
			}
		}
		if got, err := DecodePayload(frames[0][4:]); err != nil || got.(replica.UpdateMsg).Parent != "b12" {
			t.Fatalf("n=%d: shared frame does not decode: %v, %v", n, got, err)
		}
		for i := 0; i < 600; i++ { // every queue's slice at its steady capacity
			round()
		}
		return testing.AllocsPerRun(200, round)
	}
	a4, a16 := allocs(4), allocs(16)
	if a4 != a16 || a16 > 2 {
		t.Fatalf("Broadcast allocates %.0f times at N=4 and %.0f at N=16; want the same small constant (the one frame)", a4, a16)
	}
}

// TestReadBufferIsNotAliased: a readLoop decodes every frame of a
// connection out of one reused buffer, so nothing a decoded payload keeps
// may point into it. Frames of equal length follow each other here, each
// overwriting the last byte for byte.
func TestReadBufferIsNotAliased(t *testing.T) {
	tr, err := New("tcp", NewRoster(2, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	got := make(chan any, 5)
	if err := tr.Listen(0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Listen(1, func(m Message) { got <- m.Payload }); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		if err := tr.Dial(id); err != nil {
			t.Fatal(err)
		}
	}
	blk := func(tag byte) *core.Block { // equal-length fields, every byte different
		parent := core.BlockID(fmt.Sprintf("parent-%c", tag))
		return core.NewBlock(parent, 1, 1, 7, []byte{tag, tag, tag, tag}).WithToken(fmt.Sprintf("tok(%c)", tag))
	}
	first, inv := blk('A'), replica.InvMsg{Leaves: []core.BlockID{"leaf-one", "leaf-two"}}
	sends := []any{
		replica.UpdateMsg{Parent: first.Parent, Block: first},
		replica.UpdateMsg{Parent: "parent-B", Block: blk('B')},
		inv,
		replica.InvMsg{Leaves: []core.BlockID{"LEAF-ONE", "LEAF-TWO"}},
		replica.UpdateMsg{Parent: "parent-C", Block: blk('C')},
	}
	for _, p := range sends {
		if err := tr.Send(0, 1, p); err != nil {
			t.Fatal(err)
		}
	}
	var recvd []any
	for range sends {
		recvd = append(recvd, <-got)
	}
	up, ok := recvd[0].(replica.UpdateMsg)
	if !ok {
		t.Fatalf("first delivery is a %T", recvd[0])
	}
	if b := up.Block; up.Parent != first.Parent || b.ID != first.ID || b.Parent != first.Parent ||
		b.Token != first.Token || string(b.Payload) != string(first.Payload) {
		t.Fatalf("first block changed under later frames: %+v, want %+v", b, first)
	}
	if gotInv, ok := recvd[2].(replica.InvMsg); !ok || !reflect.DeepEqual(gotInv, inv) {
		t.Fatalf("inventory changed under later frames: %+v, want %+v", recvd[2], inv)
	}
}

// TestCarrierCountsDeliveredAfterInbox: a frame is counted delivered
// only once the receiver's callback has it (settle reads sent ==
// delivered as "nothing in flight"), and a send the carrier refuses is
// not counted at all.
func TestCarrierCountsDeliveredAfterInbox(t *testing.T) {
	for _, name := range []string{"chan", "tcp"} {
		t.Run(name, func(t *testing.T) {
			tr, err := New(name, NewRoster(2, nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			stats := tr.(statser).Stats
			seen := make(chan struct{}, 2)
			recv := func(Message) {
				if sent, delivered := stats(); delivered >= sent {
					t.Errorf("inside the callback: sent=%d delivered=%d — counted before the inbox had it", sent, delivered)
				}
				seen <- struct{}{}
			}
			for id := 0; id < 2; id++ {
				if err := tr.Listen(id, recv); err != nil {
					t.Fatal(err)
				}
			}
			if name == "tcp" {
				if err := tr.Send(0, 1, replica.SyncMsg{}); err == nil {
					t.Fatal("send over a link nobody dialed succeeded")
				}
			}
			for id := 0; id < 2; id++ {
				if err := tr.Dial(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Send(0, 7, replica.SyncMsg{}); err == nil {
				t.Fatal("send to an unknown node succeeded")
			}
			if sent, delivered := stats(); sent != 0 || delivered != 0 {
				t.Fatalf("refused sends were counted: sent=%d delivered=%d", sent, delivered)
			}
			for _, to := range []int{1, 0} { // across the carrier, then loopback
				if err := tr.Send(0, to, replica.SyncMsg{}); err != nil {
					t.Fatal(err)
				}
				<-seen
			}
			tr.Close() // joins the tcp readers: the counters are final
			if err := tr.Send(0, 1, replica.SyncMsg{}); err == nil {
				t.Fatal("send on a closed carrier succeeded")
			}
			if sent, delivered := stats(); sent != 2 || delivered != 2 {
				t.Fatalf("after two sends and a refused one: sent=%d delivered=%d, want 2/2", sent, delivered)
			}
		})
	}
}

// TestDoAllocsOnlyTheClosure: a client operation through the event loop
// costs the caller's closure and nothing else — no completion channel, no
// wrapper — and Do on a stopped node runs nothing.
func TestDoAllocsOnlyTheClosure(t *testing.T) {
	n, err := NewNode(0, newChanNet(1))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	ran := 0
	for i := 0; i < 600; i++ { // the inbox slice at its steady capacity
		n.Do(func() { ran++ })
	}
	if perDo := testing.AllocsPerRun(1000, func() { n.Do(func() { ran++ }) }); perDo > 1 {
		t.Errorf("Do allocates %.0f times per call, want at most the closure", perDo)
	}
	if ran != 600+1000+1 { // AllocsPerRun makes one warm-up call
		t.Fatalf("Do returned before fn had run: %d of %d", ran, 600+1000+1)
	}
	n.Stop()
	if n.Do(func() { ran = -1 }) || ran == -1 {
		t.Fatal("Do on a stopped node ran fn or reported true")
	}
}
