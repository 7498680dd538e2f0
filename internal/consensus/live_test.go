package consensus

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/transport"
)

// liveNodes deploys n nodes on the chan carrier, each hosting no
// replica.Process, only the protocol install registers on them (one
// replica.Net per process), and starts their event loops. stop joins the
// loops and cancels their timers; it is idempotent and also runs at
// cleanup.
func liveNodes(t *testing.T, n int, install func(nets []replica.Net)) (nodes []*transport.Node, stop func()) {
	t.Helper()
	tr, err := transport.New("chan", transport.NewRoster(n, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]replica.Net, n)
	for i := 0; i < n; i++ {
		nd, err := transport.NewNode(i, tr)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		nets[i] = nd
	}
	install(nets)
	for i := range nodes {
		if err := tr.Dial(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range nodes {
		nd.Start()
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			for _, nd := range nodes {
				nd.Stop()
			}
			tr.Close()
		})
	}
	t.Cleanup(stop)
	return nodes, stop
}

// eventually polls done(p) on node p's own loop until it holds at every
// node.
func eventually(t *testing.T, nodes []*transport.Node, done func(p int) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		all := true
		for p, nd := range nodes {
			var ok bool
			nd.Do(func() { ok = done(p) })
			all = all && ok
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the nodes did not finish within 10 s")
		}
	}
}

// TestEngineDecidesOnLiveNodes: the PBFT body runs unchanged on four
// transport.Nodes, each node's handlers and view-change timers on its
// own event loop, and every node decides its view-0 leader's block at
// every height.
func TestEngineDecidesOnLiveNodes(t *testing.T) {
	const n, heights = 4, 3
	decided := make([][]*core.Block, n) // decided[p] is touched on p's loop only
	for p := range decided {
		decided[p] = make([]*core.Block, heights)
	}
	var eng *Engine
	nodes, stop := liveNodes(t, n, func(nets []replica.Net) {
		var err error
		eng, err = NewEngine(nets, Config{
			Propose: func(proc, height int) *core.Block {
				return core.NewBlock(core.GenesisID, 1, proc, height, []byte{byte(proc), byte(height)})
			},
			OnDecide: func(proc, height int, b *core.Block) { decided[proc][height] = b },
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	for p, nd := range nodes {
		nd.Do(func() {
			for h := 0; h < heights; h++ {
				eng.Start(p, h)
			}
		})
	}
	eventually(t, nodes, func(p int) bool {
		for _, b := range decided[p] {
			if b == nil {
				return false
			}
		}
		return true
	})
	stop()
	for h := 0; h < heights; h++ {
		for p := 0; p < n; p++ {
			if decided[p][h].ID != decided[0][h].ID {
				t.Fatalf("height %d: p%d decided %s, p0 %s", h, p, decided[p][h].ID.Short(), decided[0][h].ID.Short())
			}
		}
		if c := decided[0][h].Creator; c != eng.Leader(h, 0) {
			t.Fatalf("height %d decided a block by p%d, not by its view-0 leader", h, c)
		}
	}
}

// TestTOBOrdersOnLiveNodes: every node submits from its own loop, and
// every node delivers the same total order of all the submissions.
func TestTOBOrdersOnLiveNodes(t *testing.T) {
	const n, each = 4, 5
	delivered := make([][]any, n) // delivered[p] is touched on p's loop only
	var tob *TOB
	nodes, stop := liveNodes(t, n, func(nets []replica.Net) {
		tob = NewTOB(nets, 0)
		tob.OnDeliver = func(proc, _ int, payload any) { delivered[proc] = append(delivered[proc], payload) }
	})
	for p, nd := range nodes {
		nd.Do(func() {
			for i := 0; i < each; i++ {
				tob.Broadcast(p, p*each+i)
			}
		})
	}
	eventually(t, nodes, func(p int) bool { return len(delivered[p]) == n*each })
	stop()
	seen := map[any]bool{}
	for _, x := range delivered[0] {
		seen[x] = true
	}
	if len(seen) != n*each {
		t.Fatalf("p0 delivered %d distinct payloads of %d", len(seen), n*each)
	}
	for p := 1; p < n; p++ {
		if !reflect.DeepEqual(delivered[p], delivered[0]) {
			t.Fatalf("p%d delivered %v, p0 %v", p, delivered[p], delivered[0])
		}
	}
}
