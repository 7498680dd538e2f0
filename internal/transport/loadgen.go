package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// loadGen drives the client side of a deployment: Clients goroutines
// issuing append attempts and reads against the roster. Appends route
// to node 0 by default (the single-writer policy that keeps benign
// runs linear — and is mandatory for sequencer profiles); Spray
// round-robins them for genuine fork pressure. Each attempt is a
// synchronous Node.Do round trip, so the measured latency covers the
// full submit → event-loop → oracle → append/record path a client of
// the real system would observe.
type loadGen struct {
	cfg   LiveConfig
	prof  Profile
	nodes []*Node
	inst  loadInstruments

	// seq is the global attempt counter: unique per attempt, it is
	// the "round" the oracle hashes into block identity.
	seq atomic.Int64
	// granted counts successful appends toward the MaxAppends budget.
	granted atomic.Int64
	// attempts / reads are cross-client tallies.
	attempts atomic.Int64
	reads    atomic.Int64

	stop chan struct{}
	once sync.Once
}

// loadInstruments carries the mutex-guarded latency histograms the
// clients observe into.
type loadInstruments struct {
	appendHist *metrics.Histogram
	readHist   *metrics.Histogram
}

func newLoadGen(cfg LiveConfig, prof Profile, nodes []*Node, inst loadInstruments) *loadGen {
	return &loadGen{cfg: cfg, prof: prof, nodes: nodes, inst: inst, stop: make(chan struct{})}
}

// run drives the load phase to its Duration/MaxAppends bound and
// joins every client before returning.
func (g *loadGen) run() {
	var timer *time.Timer
	if g.cfg.Duration > 0 {
		timer = time.AfterFunc(g.cfg.Duration, g.halt)
		defer timer.Stop()
	}
	var wg sync.WaitGroup
	for c := 0; c < g.cfg.Clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			g.client(client)
		}(c)
	}
	wg.Wait()
}

func (g *loadGen) halt() { g.once.Do(func() { close(g.stop) }) }

func (g *loadGen) halted() bool {
	select {
	case <-g.stop:
		return true
	default:
		return false
	}
}

// client is one generator loop: an append attempt, then
// readsPerAppend reads rotating across the roster, optionally paced
// to the target rate.
func (g *loadGen) client(client int) {
	var pacer *time.Ticker
	if g.cfg.Rate > 0 {
		pacer = time.NewTicker(time.Duration(float64(time.Second) / g.cfg.Rate))
		defer pacer.Stop()
	}
	readAt := client // rotate read targets, staggered per client
	for !g.halted() {
		if pacer != nil {
			select {
			case <-pacer.C:
			case <-g.stop:
				return
			}
		}
		seq := g.seq.Add(1)
		target := g.appendTarget(seq)
		if g.submitAppend(target, int(seq)) {
			if n := g.granted.Add(1); g.cfg.MaxAppends > 0 && n >= g.cfg.MaxAppends {
				g.halt()
			}
		}
		for r := 0; r < readsPerAppend && !g.halted(); r++ {
			readAt = (readAt + 1) % len(g.nodes)
			g.submitRead(g.nodes[readAt])
		}
	}
}

// appendTarget picks the node an attempt routes to. Sequencer
// profiles pin node 0 regardless of policy: only the ordering node
// may consume height tokens.
func (g *loadGen) appendTarget(seq int64) *Node {
	if g.prof.Sequencer || !g.cfg.Spray {
		return g.nodes[0]
	}
	return g.nodes[int(seq)%len(g.nodes)]
}

// submitAppend runs one oracle-backed append attempt on the target's
// event loop and reports whether a block was granted and appended.
func (g *loadGen) submitAppend(n *Node, seq int) bool {
	g.attempts.Add(1)
	t0 := time.Now()
	ok := false
	alive := n.Do(func() {
		if n.Proc.Down() {
			return // a crashed node accepts no operations
		}
		parent := n.Proc.SelectedHead()
		b := g.prof.Mint(n.ID, parent, seq)
		if b == nil {
			return // lottery lost: no operation recorded
		}
		ok = n.Proc.AppendLocal(b)
	})
	g.inst.appendHist.Observe(time.Since(t0).Microseconds())
	return alive && ok
}

// submitRead runs one read on the node's event loop (nil result at a
// crashed node; not counted).
func (g *loadGen) submitRead(n *Node) {
	t0 := time.Now()
	done := false
	n.Do(func() { done = n.Proc.Read() != nil })
	g.inst.readHist.Observe(time.Since(t0).Microseconds())
	if done {
		g.reads.Add(1)
	}
}

// totals reports (attempts, granted appends, completed reads).
func (g *loadGen) totals() (attempts, granted, reads int64) {
	return g.attempts.Load(), g.granted.Load(), g.reads.Load()
}
